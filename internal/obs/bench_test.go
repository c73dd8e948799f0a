package obs_test

import (
	"testing"

	"clocksync/internal/obs/obsbench"
)

// The benchmark bodies live in obsbench so cmd/bench can run the same code
// when recording the BENCH_obs.json baseline.

func BenchmarkObserverDisabled(b *testing.B)     { obsbench.ObserverDisabled(b) }
func BenchmarkObserverRing(b *testing.B)         { obsbench.ObserverRing(b) }
func BenchmarkRoundSpan(b *testing.B)            { obsbench.RoundSpan(b) }
func BenchmarkTraceContextDisabled(b *testing.B) { obsbench.TraceContextDisabled(b) }
func BenchmarkReplySpan(b *testing.B)            { obsbench.ReplySpan(b) }
func BenchmarkHistogramObserve(b *testing.B)     { obsbench.HistogramObserve(b) }

// TestObserverDisabledAllocFree pins the acceptance criterion directly so it
// fails in plain `go test`, not only under -bench: the no-sink fast path
// must not allocate.
func TestObserverDisabledAllocFree(t *testing.T) {
	r := testing.Benchmark(obsbench.ObserverDisabled)
	if a := r.AllocsPerOp(); a != 0 {
		t.Errorf("disabled observer path allocates: %d allocs/op", a)
	}
}

// TestRoundSpanAllocBound pins the inline-Fields redesign: one fully traced
// round (6 peers — 14 spans into a ring) must stay within 4 allocs/op. With
// map-backed fields it cost 28.
func TestRoundSpanAllocBound(t *testing.T) {
	r := testing.Benchmark(obsbench.RoundSpan)
	if a := r.AllocsPerOp(); a > 4 {
		t.Errorf("traced round allocates %d allocs/op, want <= 4", a)
	}
}

// TestTraceContextDisabledAllocFree pins the fleet-telemetry acceptance
// bound: stamping (or deciding not to stamp) the wire trace context must add
// zero allocations per message when no span sink is attached.
func TestTraceContextDisabledAllocFree(t *testing.T) {
	r := testing.Benchmark(obsbench.TraceContextDisabled)
	if a := r.AllocsPerOp(); a != 0 {
		t.Errorf("disabled trace-context path allocates: %d allocs/op", a)
	}
}

// TestReplySpanAllocBound pins the responder side of a cross-node join: one
// reply span with five inline fields into a ring must stay within 1 alloc/op
// (the ring stores spans by value; the budget leaves headroom for the
// fan-out slice read).
func TestReplySpanAllocBound(t *testing.T) {
	r := testing.Benchmark(obsbench.ReplySpan)
	if a := r.AllocsPerOp(); a > 1 {
		t.Errorf("reply span emission allocates %d allocs/op, want <= 1", a)
	}
}
