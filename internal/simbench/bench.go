// Package simbench holds the simulation-engine benchmark bodies, shared
// between `go test -bench` (repository root) and cmd/bench, which runs them
// standalone and records the JSON baseline BENCH_sim.json.
//
// They cover the three hot paths every experiment and campaign bottoms out
// in: the discrete-event queue (SimulatorEvents), the Figure 1 convergence
// function (ConvergenceFunction), and the full stack end to end
// (ClusterMinute, CampaignThroughput). The companion tests in this package
// pin the alloc budgets, so a regression fails plain `go test`, not only a
// benchmark comparison.
package simbench

import (
	"math/rand"
	"testing"

	"clocksync/internal/campaign"
	"clocksync/internal/core"
	"clocksync/internal/des"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// SimulatorEvents measures raw discrete-event throughput: schedule-and-fire
// of a self-rescheduling event chain. With the pooled arena this path must
// report 0 allocs/op — every After reuses the slot its predecessor freed.
func SimulatorEvents(b *testing.B) {
	sim := des.New(1)
	var fn func()
	remaining := b.N
	fn = func() {
		remaining--
		if remaining > 0 {
			sim.After(1, fn)
		}
	}
	sim.After(1, fn)
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run()
	if sim.Fired() != uint64(b.N) {
		b.Fatalf("fired %d, want %d", sim.Fired(), b.N)
	}
}

// ConvergenceFunction measures the Figure 1 convergence function on a
// 16-processor estimate vector — the per-round arithmetic of every node.
// The pooled scratch keeps it at 0 allocs/op in steady state.
func ConvergenceFunction(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ests := make([]protocol.Estimate, 16)
	for i := range ests {
		ests[i] = protocol.Estimate{
			Peer: i,
			D:    simtime.Duration(rng.NormFloat64()),
			A:    simtime.Duration(rng.Float64() * 0.05),
			OK:   true,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := core.Converge(5, 1, ests); !ok {
			b.Fatal("unexpected unsafe result")
		}
	}
}

// ClusterMinute measures how fast the full stack simulates one minute of an
// n-processor cluster (network, estimation, convergence, metrics) — the
// simulator's scalability envelope. A single simulator is reused across
// iterations, the same arena-recycling regime campaign workers run in.
func ClusterMinute(b *testing.B, n int) { clusterMinute(b, n, false) }

// CheckedClusterMinute is ClusterMinute with the online Theorem 5 checker
// on, as every campaign run has it: the difference is the checker's cost.
func CheckedClusterMinute(b *testing.B, n int) { clusterMinute(b, n, true) }

func clusterMinute(b *testing.B, n int, check bool) {
	sim := des.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := scenario.Run(scenario.Scenario{
			Name:     "bench",
			Seed:     int64(i),
			N:        n,
			F:        (n - 1) / 3,
			Duration: simtime.Minute,
			Theta:    2 * simtime.Minute,
			Rho:      1e-4,
			SyncInt:  10 * simtime.Second,
			ReuseSim: sim,
			Check:    check,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ClusterMinuteLarge measures the planet-scale configuration: one simulated
// minute of an n-processor cluster with a fixed fault budget f, sparse
// estimation against k-of-n peer subsets (O(n·k) messages per round instead
// of O(n²)) and the event queue sharded `shards` ways with conservative
// lookahead windows. This is the regime the n=1024 and n=4096 baseline rows
// run in; the sharded arena is reused across iterations just as ClusterMinute
// reuses its serial one. At these sizes the full mesh would be quadratically
// unaffordable — k must still satisfy k ≥ 2f+1.
func ClusterMinuteLarge(b *testing.B, n, f, k, shards int) {
	// Lookahead matches the default delay model's 5 ms minimum link delay.
	ps := des.NewSharded(0, shards, 5*simtime.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := scenario.Run(scenario.Scenario{
			Name:         "bench-large",
			Seed:         int64(i),
			N:            n,
			F:            f,
			SamplePeers:  k,
			Duration:     simtime.Minute,
			Theta:        2 * simtime.Minute,
			Rho:          1e-4,
			SyncInt:      10 * simtime.Second,
			ReuseSharded: ps,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// CampaignThroughput measures end-to-end randomized-campaign throughput:
// generation, the streaming worker pool, per-run checker attachment and
// seed-order accounting — the path that decides how many adversary
// schedules a CI run can afford.
func CampaignThroughput(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(campaign.Config{
			Runs:           8,
			Seed:           1,
			Duration:       5 * simtime.Minute,
			MaxCorruptions: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != 8 {
			b.Fatalf("completed %d of 8 runs", res.Completed)
		}
		if len(res.Failures) > 0 {
			b.Fatalf("honest campaign produced %d failures", len(res.Failures))
		}
	}
}
