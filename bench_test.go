package clocksync_test

import (
	"fmt"
	"testing"

	"clocksync/internal/experiments"
	"clocksync/internal/simbench"
)

// Experiment benchmarks — one per table/figure of EXPERIMENTS.md. Each
// regenerates the experiment (quick mode) and fails the benchmark if the
// measured results lose the shape the paper predicts. Run
// `go run ./cmd/benchtables` for full-length tables with the printed output.

func benchExperiment(b *testing.B, run func(bool) experiments.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		table := run(true)
		if !table.ChecksPass() {
			b.Fatalf("%s failed its shape checks:\n%s", table.ID, table.String())
		}
	}
}

func BenchmarkE01Deviation(b *testing.B) { benchExperiment(b, experiments.E01Deviation) }

func BenchmarkE02AccuracyTradeoff(b *testing.B) {
	benchExperiment(b, experiments.E02AccuracyTradeoff)
}

func BenchmarkE03RecoveryHalving(b *testing.B) {
	benchExperiment(b, experiments.E03RecoveryHalving)
}

func BenchmarkE04RecoveryVsBaselines(b *testing.B) {
	benchExperiment(b, experiments.E04RecoveryVsBaselines)
}

func BenchmarkE05MobileAdversary(b *testing.B) {
	benchExperiment(b, experiments.E05MobileAdversary)
}

func BenchmarkE06ResilienceThreshold(b *testing.B) {
	benchExperiment(b, experiments.E06ResilienceThreshold)
}

func BenchmarkE07TwoClique(b *testing.B) { benchExperiment(b, experiments.E07TwoClique) }

func BenchmarkE08MessageOverhead(b *testing.B) {
	benchExperiment(b, experiments.E08MessageOverhead)
}

func BenchmarkE09Discontinuity(b *testing.B) {
	benchExperiment(b, experiments.E09Discontinuity)
}

func BenchmarkE10EstimationError(b *testing.B) {
	benchExperiment(b, experiments.E10EstimationError)
}

func BenchmarkE11WayOffAblation(b *testing.B) {
	benchExperiment(b, experiments.E11WayOffAblation)
}

func BenchmarkE12DriftDelaySweep(b *testing.B) {
	benchExperiment(b, experiments.E12DriftDelaySweep)
}

func BenchmarkE13ConnectivitySweep(b *testing.B) {
	benchExperiment(b, experiments.E13ConnectivitySweep)
}

func BenchmarkE14SelfStabilization(b *testing.B) {
	benchExperiment(b, experiments.E14SelfStabilization)
}

func BenchmarkE15DriftCompensation(b *testing.B) {
	benchExperiment(b, experiments.E15DriftCompensation)
}

func BenchmarkE16MessageLoss(b *testing.B) {
	benchExperiment(b, experiments.E16MessageLoss)
}

func BenchmarkE17CachedEstimation(b *testing.B) {
	benchExperiment(b, experiments.E17CachedEstimation)
}

func BenchmarkE18ProactiveSecurity(b *testing.B) {
	benchExperiment(b, experiments.E18ProactiveSecurity)
}

func BenchmarkE19TightnessProbe(b *testing.B) {
	benchExperiment(b, experiments.E19TightnessProbe)
}

func BenchmarkE20NetworkOutage(b *testing.B) {
	benchExperiment(b, experiments.E20NetworkOutage)
}

func BenchmarkE21SamplingScaling(b *testing.B) {
	benchExperiment(b, experiments.E21SamplingScaling)
}

// Component microbenchmarks — the protocol's hot paths. The bodies live in
// internal/simbench so cmd/bench can run the same code when recording the
// BENCH_sim.json baseline; simbench's tests pin the alloc budgets.

// BenchmarkConvergenceFunction measures the Figure 1 convergence function
// on a 16-processor estimate vector.
func BenchmarkConvergenceFunction(b *testing.B) { simbench.ConvergenceFunction(b) }

// BenchmarkSimulatorEvents measures raw discrete-event throughput.
func BenchmarkSimulatorEvents(b *testing.B) { simbench.SimulatorEvents(b) }

// BenchmarkClusterMinute measures how fast the full stack simulates one
// minute of a cluster (network, estimation, convergence, metrics) at
// several sizes — the simulator's scalability envelope.
func BenchmarkClusterMinute(b *testing.B) {
	for _, n := range []int{7, 16, 64, 256} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) { simbench.ClusterMinute(b, n) })
	}
}

// BenchmarkClusterMinuteLarge measures the planet-scale regime — fixed
// fault budget f=10, estimation sampled at k=31 peers per round, event queue
// sharded 8 ways — at the sizes where the serial full mesh would be
// quadratically unaffordable. See docs/PERFORMANCE.md, "Scaling the
// simulator".
func BenchmarkClusterMinuteLarge(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) { simbench.ClusterMinuteLarge(b, n, 10, 31, 8) })
	}
}

// BenchmarkCampaignThroughput measures end-to-end randomized-campaign
// throughput — generation, the streaming worker pool and per-run checking.
func BenchmarkCampaignThroughput(b *testing.B) { simbench.CampaignThroughput(b) }
