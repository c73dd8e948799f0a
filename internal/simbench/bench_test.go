package simbench

import "testing"

func BenchmarkSimulatorEvents(b *testing.B)     { SimulatorEvents(b) }
func BenchmarkConvergenceFunction(b *testing.B) { ConvergenceFunction(b) }
func BenchmarkClusterMinuteN7(b *testing.B)     { ClusterMinute(b, 7) }
func BenchmarkCheckedClusterMinuteN7(b *testing.B) {
	CheckedClusterMinute(b, 7)
}
func BenchmarkClusterMinuteLargeN1024(b *testing.B) {
	ClusterMinuteLarge(b, 1024, 10, 31, 8)
}
func BenchmarkCampaignThroughput(b *testing.B) { CampaignThroughput(b) }

// The alloc-budget pins run in plain `go test`, so a hot-path allocation
// regression fails CI without anyone comparing benchmark output by hand.
// BENCH_sim.json records the corresponding ns/op baselines.

// TestSimulatorEventsAllocFree pins the arena design: schedule-and-fire of
// pooled events must not allocate.
func TestSimulatorEventsAllocFree(t *testing.T) {
	r := testing.Benchmark(SimulatorEvents)
	if a := r.AllocsPerOp(); a != 0 {
		t.Errorf("After+fire path allocates: %d allocs/op, want 0", a)
	}
}

// TestConvergenceFunctionAllocFree pins the pooled scratch: the convergence
// function must not allocate in steady state.
func TestConvergenceFunctionAllocFree(t *testing.T) {
	if raceEnabled {
		// sync.Pool deliberately drops items at random under the race
		// detector, so the pooled scratch misses and the count is unstable.
		t.Skip("alloc count not stable under -race")
	}
	r := testing.Benchmark(ConvergenceFunction)
	if a := r.AllocsPerOp(); a != 0 {
		t.Errorf("Converge allocates: %d allocs/op, want 0", a)
	}
}

// TestClusterMinuteAllocBudget pins the end-to-end allocation profile. The
// payload free lists (TimeReq/TimeResp pooled per harness, sized to the
// round's working set) took a simulated n=256 cluster-minute from ~752k to
// ~105k allocs/op; the budgets below hold that ground with headroom for
// noise, so un-pooling a hot payload path fails plain `go test`, not only a
// benchmark comparison.
func TestClusterMinuteAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs multi-second cluster simulations")
	}
	if raceEnabled {
		t.Skip("alloc counts include race-detector bookkeeping")
	}
	for _, tc := range []struct {
		n      int
		budget int64
	}{
		{7, 1_500},     // measured ~0.46k
		{256, 160_000}, // measured ~87k
	} {
		r := testing.Benchmark(func(b *testing.B) { ClusterMinute(b, tc.n) })
		if a := r.AllocsPerOp(); a > tc.budget {
			t.Errorf("ClusterMinute n=%d: %d allocs/op over budget %d — a payload or event path stopped pooling",
				tc.n, a, tc.budget)
		}
	}
}

// TestCheckedRunAllocBudget pins the allocation profile of a checked run.
// The checker reads the metrics recorder's per-adjustment sample instead of
// an observability stream, and sample vectors are carved from shared
// slabs, so a checked n=7 cluster-minute allocates no more than an
// unchecked one plus the checker itself (measured ~470 allocs/op; ~1250
// when the checker rode an observer). Re-attaching an observer, or
// allocating per sample again, fails this budget.
func TestCheckedRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs multi-second cluster simulations")
	}
	if raceEnabled {
		t.Skip("alloc counts include race-detector bookkeeping")
	}
	const budget = 600
	r := testing.Benchmark(func(b *testing.B) { CheckedClusterMinute(b, 7) })
	if a := r.AllocsPerOp(); a > budget {
		t.Errorf("checked ClusterMinute n=7: %d allocs/op over budget %d", a, budget)
	}
}
