package main

import (
	"fmt"
	"runtime"
	"time"

	"clocksync/internal/campaign"
	"clocksync/internal/des"
	"clocksync/internal/obs"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// campaignWorkload runs checked adversary campaigns over the honest family
// mix: many short n=7 runs through campaign.Run's worker pool, each with
// the online checker. Its inputs are a fixed cycle of batches (campaigns
// of batchRuns runs) whose base seeds derive from --seed.
type campaignWorkload struct {
	families  string
	batchRuns int
	batches   int
	workers   int
}

// newCampaignWorkload runs one pool worker. With one per CPU, the CPU time
// per run was about 30% higher and moved with the host by twice as much
// between runs, and the peak RSS by 12% where one worker repeats it exactly.
func newCampaignWorkload() campaignWorkload {
	return campaignWorkload{families: "delayskew,churn,flash,coldstart", batchRuns: 16, batches: 4, workers: 1}
}

func (w campaignWorkload) config(seed int64, b int, mix campaign.FamilyMix) campaign.Config {
	return campaign.Config{Runs: w.batchRuns, Seed: subSeed(seed, b), Families: mix, Workers: w.workers}
}

// runStats are what the campaign workload pins and reports beyond the
// simulated statistics of its runs.
type runStats struct {
	total       simStats
	violations  int
	corruptions int
	timeouts    int64
	genUS       []float64 // campaign.Config.Scenario per run
	runS        []float64 // scenario.Run per run, serial
	batchRunS   []float64 // summed serial run time per batch
	wayOff      simtime.Duration
}

// replay runs every seed of every batch through scenario.Run serially, as
// campaign.Run's workers do, and gathers the statistics campaign.Run does
// not return. check=false drops the online checker (for its overhead).
func (w campaignWorkload) replay(seed int64, mix campaign.FamilyMix, check bool, tr *obs.Observer) (runStats, error) {
	var rs runStats
	g := engine{sim: des.New(0)}
	for b := 0; b < w.batches; b++ {
		cfg := w.config(seed, b, mix)
		batchS := 0.0
		for i := 0; i < w.batchRuns; i++ {
			runSeed := cfg.Seed + int64(i)
			sp := begin(tr, nil, "campaign.Config.Scenario")
			start := time.Now()
			s := cfg.Scenario(runSeed)
			rs.genUS = append(rs.genUS, us(time.Since(start)))
			sp.end(obs.F("corruptions", float64(len(s.Adversary.Corruptions))))
			s.Check = check
			res, st, d, err := runScenario(g, s, tr, nil)
			if err != nil {
				return rs, fmt.Errorf("seed %d: %w", runSeed, err)
			}
			dt := d.Seconds()
			rs.total.add(st)
			rs.violations += len(res.Violations)
			rs.corruptions += len(s.Adversary.Corruptions)
			rs.timeouts += res.EventCounts[obs.KindTimeout]
			rs.runS = append(rs.runS, dt)
			rs.wayOff = res.Bounds.WayOff
			batchS += dt
		}
		rs.batchRunS = append(rs.batchRunS, batchS)
	}
	return rs, nil
}

// cycle returns the pinned statistics of a seed: every run of the batch
// cycle, replayed with the checker.
func (w campaignWorkload) cycle(seed int64) (simStats, error) {
	mix, err := campaign.ParseFamilyMix(w.families)
	if err != nil {
		return simStats{}, err
	}
	rs, err := w.replay(seed, mix, true, nil)
	return rs.total, err
}

// setup parses the family mix and generates and constructs the first
// batch's scenarios (each run for a vanishing simulated horizon).
func (w campaignWorkload) setup(seed int64, tr *obs.Observer) (setupTime, campaign.FamilyMix, error) {
	var st setupTime
	var mix campaign.FamilyMix
	for i := 0; i < setupReps; i++ {
		sp := begin(tr, nil, "bench.setup")
		done := st.start()
		var err error
		if mix, err = campaign.ParseFamilyMix(w.families); err != nil {
			return st, nil, err
		}
		cfg := w.config(seed, 0, mix)
		sim := des.New(0)
		for r := 0; r < w.batchRuns; r++ {
			s := cfg.Scenario(cfg.Seed + int64(r))
			s.Duration = simtime.Millisecond / 1000
			s.ReuseSim = sim
			if _, err := scenario.Run(s); err != nil {
				return st, nil, fmt.Errorf("setup: %w", err)
			}
		}
		done()
		sp.end(obs.F("runs", float64(w.batchRuns)))
		runtime.GC() // as in simWorkload.setup
	}
	return st, mix, nil
}

type batchResult struct {
	completed, failures, violations int
}

func runCampaign(e *env) (*outcome, error) {
	w := newCampaignWorkload()
	setup, mix, err := w.setup(e.seed, e.trace)
	if err != nil {
		return nil, err
	}

	bases := make([]int64, w.batches)
	for b := range bases {
		bases[b] = subSeed(e.seed, b)
	}
	sample := w.config(e.seed, 0, mix).Scenario(bases[0])
	out := &outcome{config: map[string]any{
		"n": sample.N, "f": sample.F, "k": sample.SamplePeers, "shards": 0, "mode": "full mesh",
		"check": sample.Check, "sim_duration_s": sample.Duration.Seconds(), "theta_s": sample.Theta.Seconds(),
		"families": w.families, "runs_per_batch": w.batchRuns, "batches": w.batches,
		"workers": w.workers, "seed": e.seed, "batch_seeds": bases,
	}}

	first := make([]batchResult, w.batches)
	walls := make([][]float64, w.batches) // untraced batch wall times per batch
	var times, cpus, tracedTimes []float64
	minReps := w.batches // a whole cycle, and a traced one too in traced runs
	if e.traced() {
		minReps *= 2
	}
	ref := newReference()
	deadline := time.Now().Add(e.seconds)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		b := rep % w.batches
		var tr *obs.Observer
		if (rep/w.batches)%2 == 1 {
			tr = e.trace
		}
		cfg := w.config(e.seed, b, mix)
		sp := begin(tr, nil, "campaign.Run")
		start := time.Now()
		c0 := cpuTime()
		res, err := campaign.Run(cfg)
		dt := time.Since(start).Seconds()
		cpu := cpuTime() - c0
		out.attempted += w.batchRuns
		if err != nil || res == nil {
			sp.end(obs.F("failed", 1))
			out.failed += w.batchRuns
			out.fail("batch %d: %v", b, err)
			continue
		}
		got := batchResult{res.Completed, len(res.Failures), res.TotalViolations}
		sp.end(obs.F("runs", float64(res.Runs)).F("completed", float64(res.Completed)).
			F("failures", float64(len(res.Failures))).F("workers", float64(w.workers)))
		out.failed += got.failures + (w.batchRuns - got.completed)
		if rep == w.batches-1 {
			out.set("peak_rss_mb", peakRSSMB(), "MB")
		}
		switch {
		case rep < w.batches:
			first[b] = got
			if got.failures > 0 || got.completed != w.batchRuns {
				out.fail("honest batch %d: %d of %d runs completed, %d failed (first failing seed %d)",
					b, got.completed, w.batchRuns, got.failures, firstFailingSeed(res))
			}
		case got != first[b]:
			out.fail("batch %d changed between repetitions: %+v, then %+v", b, first[b], got)
		}
		if tr != nil {
			tracedTimes = append(tracedTimes, dt)
			continue
		}
		times = append(times, dt)
		cpus = append(cpus, cpu.Seconds())
		ref.runFor(cpu / referenceShare)
		walls[b] = append(walls[b], dt)
	}
	if len(times) == 0 {
		out.fail("no batch completed untraced")
		return out, nil
	}

	rs, err := w.replay(e.seed, mix, true, e.trace)
	if err != nil {
		return nil, err
	}
	if e.pins != nil && rs.total != *e.pins {
		out.fail("statistics differ from pins.json: got %+v, pinned %+v", rs.total, *e.pins)
	}
	if rs.violations > 0 {
		out.fail("replayed honest runs report %d checker violations", rs.violations)
	}
	cpuMS := sum(cpus) * 1e3 / float64(len(cpus)*w.batchRuns)
	runsPerS := float64(len(times)*w.batchRuns) / sum(times)
	out.say("cpu_per_op=%.6g reference units: %.6g process CPU ms per checked run, %.6g ms per reference unit",
		cpuMS/ref.ms(), cpuMS, ref.ms())
	out.say("campaign_runs_per_s=%.6g over %d batches of %d runs, %d workers; deviation_ratio=%.6g; events=%d msgs=%d syncs=%d per cycle of %d batches (pinned: %v)",
		runsPerS, len(times), w.batchRuns, w.workers, rs.total.DeviationRatio, rs.total.Events, rs.total.Msgs,
		rs.total.Syncs, w.batches, e.pins != nil)
	setupS := ref.atNominal(median(setup.cpu))
	out.say("batch time p50 %.6g s, p90 %.6g s; %s", median(times), quantile(times, 0.9), setup.describe(setupS))
	out.set("wall.throughput", runsPerS, "1/s")
	out.set("wall.latency_p50_us", median(times)*1e6, "us")
	out.set("wall.latency_p99_us", quantile(times, 0.99)*1e6, "us")
	out.set("setup_s", setupS, "s")
	out.set("cpu_per_op", cpuMS/ref.ms(), "ref")
	out.set("host.cpu_ms_per_op", cpuMS, "ms")
	out.set("host.ref_ms", ref.ms(), "ms")
	if !e.traced() {
		return out, nil
	}

	runs := float64(len(rs.runS))
	t := rs.total
	serialS := sum(rs.runS)
	out.set("des.events", float64(t.Events)/runs, "count")
	out.set("des.ns_per_event", serialS*1e9/float64(t.Events), "ns")
	out.set("network.msgs", float64(t.Msgs)/runs, "count")
	out.set("network.bytes", float64(t.Bytes)/runs, "B")
	out.set("network.msgs_per_sync", ratio(float64(t.Msgs), float64(t.rounds())), "count")
	out.set("network.ns_per_msg", serialS*1e9/float64(t.Msgs), "ns")
	out.set("core.syncs", float64(t.Syncs)/runs, "count")
	out.set("core.skip_ratio", ratio(float64(t.Skipped), float64(t.rounds())), "ratio")
	out.set("core.wayoff_ratio", ratio(float64(t.WayOff), float64(t.rounds())), "ratio")
	out.set("protocol.timeout_ratio", ratio(float64(rs.timeouts), float64(t.rounds()*(sample.N-1))), "ratio")
	out.set("check.violations", float64(rs.violations), "count")
	out.set("campaign.gen_us", sum(rs.genUS)/runs, "us")
	out.set("scenario.run_ms_p50", median(rs.runS)*1e3, "ms")
	out.set("scenario.run_ms_p99", quantile(rs.runS, 0.99)*1e3, "ms")
	out.set("adversary.corruptions_per_run", float64(rs.corruptions)/runs, "count")
	out.set("obs.trace_overhead", median(tracedTimes)/median(times), "ratio")

	// Pool efficiency: the serial time of a batch's runs over the wall time
	// the pool took for it times its workers.
	var busy, capacity float64
	for b, ws := range walls {
		if len(ws) > 0 {
			busy += rs.batchRunS[b]
			capacity += median(ws) * float64(w.workers)
		}
	}
	out.set("campaign.pool_efficiency", ratio(busy, capacity), "ratio")

	plain, err := w.replay(e.seed, mix, false, e.trace)
	if err != nil {
		return nil, err
	}
	out.set("check.overhead_ratio", serialS/sum(plain.runS), "ratio")
	probeCore(e.trace, out, 2, 6, rs.wayOff)
	probeSampler(e.trace, out)
	probeCodec(e.trace, out)
	return out, nil
}

func firstFailingSeed(res *campaign.Result) int64 {
	if len(res.Failures) == 0 {
		return -1
	}
	return res.Failures[0].Seed
}
