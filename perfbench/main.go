// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed host time, checks the program's outputs, and prints
// the workload's metrics:
//
//	perfbench --workload mesh --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it times
// each layer's public calls from outside, records spans around them, and
// prints the per-layer metrics instead. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
// A failed output check exits with status 1.
//
// The workloads, metrics and checks are described in README.md beside this
// file; BENCHMARK.json at the repository root lists them for automation.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"clocksync/internal/obs"
)

// heldOutSeed is never used while tuning or optimising; a later change that
// claims a gain must show it on this seed too. Its statistics are pinned.
const heldOutSeed = 7919

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"mesh":     runMesh,
	"sampled":  runSampled,
	"campaign": runCampaign,
	"live":     runLive,
}

// env is what a workload run receives: the generated-input seed, the
// measured duration and, in traced runs, the observer recording spans.
type env struct {
	seed    int64
	seconds time.Duration
	trace   *obs.Observer // nil in untraced runs
	spans   func() []obs.Span
	nproc   int
	// pins are the statistics the seed's inputs must reproduce (nil when the
	// seed is not pinned).
	pins *simStats
}

func (e *env) traced() bool { return e.trace != nil }

// outcome is one workload run's result.
type outcome struct {
	config    map[string]any
	attempted int
	failed    int
	checks    []string // failed output checks
	metrics   []metric
	summary   []string // human-readable lines, with the per-workload metric names
}

type metric struct {
	Name  string
	Value float64
	Unit  string
}

func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, value float64, unit string) {
	for i := range o.metrics {
		if o.metrics[i].Name == name {
			o.metrics[i] = metric{name, value, unit}
			return
		}
	}
	o.metrics = append(o.metrics, metric{name, value, unit})
}

func (o *outcome) say(format string, args ...any) {
	o.summary = append(o.summary, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: mesh, sampled, campaign or live")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	pinOut := fs.String("pin", "", "write the pinned statistics to this file and exit")
	rssProbe := fs.Bool("rss-probe", false, "set up and run each input of a simulator workload once, then exit (the benchmark measures peak RSS in such child processes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rssProbe {
		w, ok := simWorkloadNamed(*workload, runtime.NumCPU())
		if !ok {
			fmt.Fprintln(stderr, "perfbench: --rss-probe needs --workload mesh or sampled")
			return 2
		}
		if err := w.onePass(*seed); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *pinOut != "" {
		if err := writePins(*pinOut, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[*workload]
	if !ok || fs.NArg() != 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), ","))
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		nproc:   runtime.NumCPU(),
		pins:    pins.lookup(*workload, *seed),
	}
	if *traceFlag == 1 {
		e.trace, e.spans = newTraceObserver()
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out, err := runner(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if e.traced() {
		out.set("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), "MB")
		out.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
		spans := e.spans()
		path, err := writeSpans(spans, *workload, *seed)
		if err != nil {
			out.fail("writing trace: %v", err)
		} else {
			out.say("trace: %d spans written to %s", len(spans), path)
		}
		keepMetrics(out, perLayer, true)
	} else {
		keepMetrics(out, endToEnd, false)
	}
	return report(stdout, stderr, *workload, e, out)
}

// report prints the run record, the human summary and, last, the result
// line, and returns the exit status.
func report(stdout, stderr io.Writer, workload string, e *env, out *outcome) int {
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	record := map[string]any{
		"workload": workload,
		"seed":     e.seed,
		"seconds":  e.seconds.Seconds(),
		"trace":    e.traced(),
		"pinned":   e.pins != nil,
		"machine":  machine(),
		"config":   out.config,
	}
	if b, err := json.Marshal(record); err == nil {
		fmt.Fprintf(w, "record %s\n", b)
	}
	if out.attempted < 1 {
		out.attempted = 1 // the result line requires at least one
		out.fail("no operation attempted")
	}
	for _, line := range out.summary {
		fmt.Fprintf(w, "%s: %s\n", workload, line)
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "%s: error_rate=%.6g (%d failed of %d attempted)\n", workload, errRate, out.failed, out.attempted)
	for _, m := range out.metrics {
		fmt.Fprintf(w, "%s: %s=%.6g %s\n", workload, m.Name, m.Value, m.Unit)
	}
	for _, c := range out.checks {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", workload, c)
		fmt.Fprintf(w, "%s: check failed: %s\n", workload, c)
	}
	metrics := make(map[string]any, len(out.metrics))
	for _, m := range out.metrics {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	res := map[string]any{
		"correct":   len(out.checks) == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	if len(out.checks) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// commit is set at build time by run.sh (-ldflags "-X main.commit=...").
var commit = "unknown"

// machine describes the host a result was measured on.
func machine() map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
