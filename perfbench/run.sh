#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload mesh --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Every build product, cache and trace
# stays under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTELEMETRY=off
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTMPDIR="$out/tmp"
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0
export PERFBENCH_OUT="$out/perfbench"

# The commit the results are recorded against; a checkout that is not a git
# repository records "unknown". Go's own VCS stamping is off because it
# fails the build when git refuses the repository (e.g. another owner).
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && ! git -C "$root" diff --quiet HEAD 2>/dev/null; then
	commit="$commit+modified"
fi

bin="$out/perfbench/perfbench"
mkdir -p "$out/perfbench"
# Build to a temporary name and rename, so an interrupted build never leaves
# a half-written binary behind.
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$bin.tmp.$$" .) >&2
mv -f "$bin.tmp.$$" "$bin"
cd "$root"
exec "$bin" "$@"
