package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"clocksync/internal/des"
	"clocksync/internal/metrics"
	"clocksync/internal/network"
	"clocksync/internal/obs"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// simWorkload is a simulated cluster run back to back on one reused arena.
// Its inputs are a fixed cycle of scenarios derived from the seed; the run
// repeats the cycle until the measured time is up, and every repetition of
// an input must reproduce the input's first statistics exactly.
type simWorkload struct {
	name     string
	n, f, k  int // k > 0 selects peer sampling
	shards   int // 0 selects the serial engine
	duration simtime.Duration
	inputs   int
	// delay is the network delay model; nil keeps the scenario default
	// (uniform in [5 ms, 50 ms]). The self-tests inject a slowed model.
	delay network.DelayModel
}

// meshWorkload is the full-mesh serial simulation: every round sends
// n(n−1) messages and converges over 95-wide estimate vectors.
func meshWorkload() simWorkload {
	return simWorkload{name: "mesh", n: 96, f: 31, duration: 2 * simtime.Minute, inputs: 4}
}

// sampledWorkload is the large sparse simulation: n=1024 with k=31 peers
// sampled per round, on the sharded engine with one shard per CPU.
func sampledWorkload(nproc int) simWorkload {
	return simWorkload{name: "sampled", n: 1024, f: 10, k: 31, shards: nproc,
		duration: simtime.Minute, inputs: 2}
}

// simWorkloadNamed returns the simulator workload of that name.
func simWorkloadNamed(name string, nproc int) (simWorkload, bool) {
	switch name {
	case "mesh":
		return meshWorkload(), true
	case "sampled":
		return sampledWorkload(nproc), true
	}
	return simWorkload{}, false
}

func runMesh(e *env) (*outcome, error)    { return runSim(e, meshWorkload()) }
func runSampled(e *env) (*outcome, error) { return runSim(e, sampledWorkload(e.nproc)) }

// setupReps is how many times a workload sets up from scratch; setup_s is
// the median.
const setupReps = 31

func (w simWorkload) scenario(seed int64, j int) scenario.Scenario {
	return scenario.Scenario{
		Name:        w.name,
		Seed:        subSeed(seed, j),
		N:           w.n,
		F:           w.f,
		SamplePeers: w.k,
		Duration:    w.duration,
		Theta:       2 * simtime.Minute,
		Rho:         1e-4,
		SyncInt:     10 * simtime.Second,
		Delay:       w.delay,
	}
}

func (w simWorkload) config(seed int64) map[string]any {
	mode, width := "full mesh", w.n-1
	if w.k > 0 {
		mode, width = "sampled", w.k
	}
	seeds := make([]int64, w.inputs)
	for j := range seeds {
		seeds[j] = subSeed(seed, j)
	}
	s := w.scenario(seed, 0)
	return map[string]any{
		"n": w.n, "f": w.f, "k": w.k, "shards": w.shards, "mode": mode,
		"estimate_width": width, "sim_duration_s": w.duration.Seconds(),
		"theta_s": s.Theta.Seconds(), "sync_int_s": s.SyncInt.Seconds(), "rho": s.Rho,
		"seed": seed, "input_seeds": seeds,
	}
}

// engine is a reusable simulator arena: serial (sim) or sharded (ps).
type engine struct {
	sim *des.Sim
	ps  *des.ShardedSim
}

func (w simWorkload) newEngine(shards int) engine {
	if shards == 0 {
		return engine{sim: des.New(0)}
	}
	delay := w.delay
	if delay == nil {
		delay = network.NewUniformDelay(5*simtime.Millisecond, 50*simtime.Millisecond)
	}
	return engine{ps: des.NewSharded(0, shards, network.MinDelay(delay))}
}

func (g engine) shards() int {
	if g.ps != nil {
		return g.ps.Shards()
	}
	return 0
}

func (g engine) fired() uint64 {
	if g.ps != nil {
		return g.ps.Fired()
	}
	return g.sim.Fired()
}

// simStats are the simulated statistics of a run or an input cycle. They
// depend only on the inputs, so a change that only alters speed leaves
// them identical; pins.json holds them for a range of seeds.
type simStats struct {
	Events         uint64  `json:"events"`
	Msgs           int     `json:"msgs"`
	Bytes          int     `json:"bytes"`
	Syncs          int     `json:"syncs"`
	Skipped        int     `json:"skipped"`
	WayOff         int     `json:"wayoff"`
	DeviationRatio float64 `json:"deviation_ratio"`
}

// add accumulates s into a cycle total: counts add, the deviation ratio is
// the worst.
func (t *simStats) add(s simStats) {
	t.Events += s.Events
	t.Msgs += s.Msgs
	t.Bytes += s.Bytes
	t.Syncs += s.Syncs
	t.Skipped += s.Skipped
	t.WayOff += s.WayOff
	if s.DeviationRatio > t.DeviationRatio {
		t.DeviationRatio = s.DeviationRatio
	}
}

func (t simStats) rounds() int { return t.Syncs + t.Skipped }

func statsOf(res *scenario.Result, events uint64) simStats {
	st := simStats{
		Events: events, Msgs: res.MsgsSent, Bytes: res.BytesSent,
		DeviationRatio: float64(res.Report.MaxDeviation) / float64(res.Bounds.MaxDeviation),
	}
	for _, ss := range res.SyncStats {
		if ss != nil {
			st.Syncs += ss.Syncs
			st.Skipped += ss.Skipped
			st.WayOff += ss.WayOffTriggers
		}
	}
	return st
}

// runScenario runs s on the engine's arena inside a "scenario.Run" span.
func runScenario(g engine, s scenario.Scenario, tr *obs.Observer, parent *span) (*scenario.Result, simStats, time.Duration, error) {
	s.ReuseSim, s.ReuseSharded = g.sim, g.ps
	sp := begin(tr, parent, "scenario.Run")
	start := time.Now()
	res, err := scenario.Run(s)
	dt := time.Since(start)
	if err != nil {
		sp.end(obs.F("failed", 1))
		return nil, simStats{}, dt, err
	}
	st := statsOf(res, g.fired())
	sp.end(obs.F("events", float64(st.Events)).F("msgs", float64(st.Msgs)).
		F("bytes", float64(st.Bytes)).F("syncs", float64(st.Syncs)).
		F("shards", float64(g.shards())).F("check", boolF(s.Check)).
		F("violations", float64(len(res.Violations))))
	return res, st, dt, nil
}

// setup builds an arena and constructs the first input's scenario (run for
// a vanishing simulated horizon, so only construction costs) setupReps
// times, and returns the median set-up time and the last arena.
func (w simWorkload) setup(seed int64, tr *obs.Observer) (setupTime, engine, error) {
	var st setupTime
	var g engine
	for i := 0; i < setupReps; i++ {
		sp := begin(tr, nil, "bench.setup")
		done := st.start()
		g = w.newEngine(w.shards)
		s := w.scenario(seed, 0)
		s.Duration = simtime.Millisecond / 1000
		s.ReuseSim, s.ReuseSharded = g.sim, g.ps
		if _, err := scenario.Run(s); err != nil {
			return st, g, fmt.Errorf("setup: %w", err)
		}
		done()
		sp.end(obs.F("n", float64(w.n)).F("shards", float64(w.shards)))
		// Each set-up is done once in real use: collect its garbage, untimed,
		// so the repetitions do not pile up into a peak RSS no user sees.
		runtime.GC()
	}
	return st, g, nil
}

// peakRSSProbes is how many child processes childPeakRSS runs.
const peakRSSProbes = 5

// childPeakRSS is the median peak RSS of child processes that each set up
// and run each input once (--rss-probe), one after another: the memory the
// inputs need. A process's peak is its highest point, so one process gives
// one sample: on sampled, where two shards allocate about 2.5 GB/s, one
// GC cycle overshooting now and then put single peaks anywhere from 41 to
// 63 MB. Later repetitions would only add more chances of that.
func (w simWorkload) childPeakRSS(seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	peaks := make([]float64, peakRSSProbes)
	for i := range peaks {
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10), "--rss-probe")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("peak RSS probe: %w", err)
		}
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return 0, fmt.Errorf("peak RSS probe: no resource usage")
		}
		peaks[i] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return median(peaks), nil
}

// onePass sets up and runs each input once: the work of an --rss-probe
// child.
func (w simWorkload) onePass(seed int64) error {
	_, g, err := w.setup(seed, nil)
	if err != nil {
		return err
	}
	for j := 0; j < w.inputs; j++ {
		if _, _, _, err := runScenario(g, w.scenario(seed, j), nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// cycle runs each input once on a fresh arena and returns the cycle's
// statistics (what pins.json records).
func (w simWorkload) cycle(seed int64) (simStats, error) {
	g := w.newEngine(w.shards)
	var total simStats
	for j := 0; j < w.inputs; j++ {
		_, st, _, err := runScenario(g, w.scenario(seed, j), nil, nil)
		if err != nil {
			return total, err
		}
		total.add(st)
	}
	return total, nil
}

func runSim(e *env, w simWorkload) (*outcome, error) {
	out := &outcome{config: w.config(e.seed)}
	peak, err := w.childPeakRSS(e.seed)
	if err != nil {
		return nil, err
	}
	out.set("peak_rss_mb", peak, "MB")
	setup, g, err := w.setup(e.seed, e.trace)
	if err != nil {
		return nil, err
	}

	first := make([]simStats, w.inputs)
	diverged := make([]bool, w.inputs)
	// Per-rep host times and work, split by whether the rep was traced.
	var times, cpus, tracedTimes, events, msgs, reportMS []float64
	// Only scalars of a finished run are kept: holding its Result would keep
	// a whole cluster live, for the collector to trace, through the next run.
	var samples int
	var wayOff simtime.Duration
	minReps := w.inputs // a whole cycle, and a traced one too in traced runs
	if e.traced() {
		minReps *= 2
	}
	ref := newReference()
	deadline := time.Now().Add(e.seconds)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		j := rep % w.inputs
		var tr *obs.Observer
		if (rep/w.inputs)%2 == 1 {
			tr = e.trace // traced runs alternate traced and untraced cycles
		}
		root := begin(tr, nil, "bench.rep")
		c0 := cpuTime()
		res, st, dt, err := runScenario(g, w.scenario(e.seed, j), tr, root)
		cpu := cpuTime() - c0
		out.attempted++
		if err != nil {
			root.end(obs.F("input", float64(j)))
			out.failed++
			if !diverged[j] {
				out.fail("input %d: %v", j, err)
				diverged[j] = true
			}
			continue
		}
		if tr != nil {
			reportMS = append(reportMS, rebuildReport(res, tr, root))
		}
		root.end(obs.F("input", float64(j)))
		samples, wayOff = len(res.Recorder.Samples()), res.Bounds.WayOff
		switch {
		case rep < w.inputs:
			first[j] = st
		case st != first[j] && !diverged[j]:
			out.fail("input %d: statistics changed between repetitions: %+v, then %+v", j, first[j], st)
			diverged[j] = true
		}
		if st.DeviationRatio > 1 {
			out.failed++
		}
		if tr != nil {
			tracedTimes = append(tracedTimes, dt.Seconds())
			continue
		}
		times = append(times, dt.Seconds())
		cpus = append(cpus, cpu.Seconds())
		ref.runFor(cpu / referenceShare)
		events = append(events, float64(st.Events))
		msgs = append(msgs, float64(st.Msgs))
	}
	var cycle simStats
	for _, st := range first {
		cycle.add(st)
	}
	if e.pins != nil && cycle != *e.pins {
		out.fail("statistics differ from pins.json: got %+v, pinned %+v", cycle, *e.pins)
	}
	if len(times) == 0 {
		out.fail("no run completed")
		return out, nil
	}

	cpuMS := sum(cpus) * 1e3 / (float64(len(cpus)) * w.duration.Seconds())
	simSpeed := float64(len(times)) * w.duration.Seconds() / sum(times)
	out.say("cpu_per_op=%.6g reference units: %.6g process CPU ms per simulated second, %.6g ms per reference unit",
		cpuMS/ref.ms(), cpuMS, ref.ms())
	out.say("sim_speed=%.6g s/s over %d runs of %v simulated; deviation_ratio=%.6g; events=%d msgs=%d bytes=%d syncs=%d per cycle of %d inputs (pinned: %v)",
		simSpeed, len(times), w.duration, cycle.DeviationRatio, cycle.Events, cycle.Msgs, cycle.Bytes, cycle.Syncs, w.inputs, e.pins != nil)
	setupS := ref.atNominal(median(setup.cpu))
	out.say("run time p50 %.6g s, p90 %.6g s; %s", median(times), quantile(times, 0.9), setup.describe(setupS))
	out.set("wall.throughput", simSpeed, "1/s")
	out.set("wall.latency_p50_us", median(times)*1e6, "us")
	out.set("wall.latency_p99_us", quantile(times, 0.99)*1e6, "us")
	out.set("setup_s", setupS, "s")
	out.set("cpu_per_op", cpuMS/ref.ms(), "ref")
	out.set("host.cpu_ms_per_op", cpuMS, "ms")
	out.set("host.ref_ms", ref.ms(), "ms")
	if !e.traced() {
		return out, nil
	}

	perRep := float64(w.inputs)
	out.set("des.events", float64(cycle.Events)/perRep, "count")
	out.set("des.ns_per_event", sum(times)*1e9/sum(events), "ns")
	out.set("network.msgs", float64(cycle.Msgs)/perRep, "count")
	out.set("network.bytes", float64(cycle.Bytes)/perRep, "B")
	out.set("network.msgs_per_sync", ratio(float64(cycle.Msgs), float64(cycle.rounds())), "count")
	out.set("network.ns_per_msg", sum(times)*1e9/sum(msgs), "ns")
	out.set("core.syncs", float64(cycle.Syncs)/perRep, "count")
	out.set("core.skip_ratio", ratio(float64(cycle.Skipped), float64(cycle.rounds())), "ratio")
	out.set("core.wayoff_ratio", ratio(float64(cycle.WayOff), float64(cycle.rounds())), "ratio")
	out.set("metrics.samples", float64(samples), "count")
	out.set("metrics.report_ms", median(reportMS), "ms")
	out.set("scenario.run_ms_p50", median(times)*1e3, "ms")
	out.set("scenario.run_ms_p99", quantile(times, 0.99)*1e3, "ms")
	out.set("obs.trace_overhead", median(tracedTimes)/median(times), "ratio")
	if w.shards > 0 {
		if err := w.shardSpeedup(e, out); err != nil {
			return nil, err
		}
	}
	if err := w.checkedSerial(e, out); err != nil {
		return nil, err
	}
	width := w.n - 1
	if w.k > 0 {
		width = w.k
	}
	probeCore(e.trace, out, w.f, width, wayOff)
	probeSampler(e.trace, out)
	probeCodec(e.trace, out)
	return out, nil
}

// rebuildReport re-runs the metrics layer's report over the finished run
// with the options scenario.Run used (honest runs with no initial spread
// warm up for three Syncs) and returns its host time in ms.
func rebuildReport(res *scenario.Result, tr *obs.Observer, parent *span) float64 {
	s := res.Scenario
	sp := begin(tr, parent, "metrics.BuildReport")
	start := time.Now()
	res.Recorder.BuildReport(metrics.ReportOptions{
		SkipBefore:        simtime.Time(3 * s.SyncInt),
		RecoveryMargin:    res.Bounds.MaxDeviation,
		MinRateWindow:     simtime.MaxDuration(10*s.SyncInt, simtime.Duration(float64(s.Duration)/10)),
		LogicalDriftBound: res.Bounds.LogicalDrift,
	})
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	sp.end(obs.F("samples", float64(len(res.Recorder.Samples()))))
	return ms
}

// shardSpeedup times input 0 on one shard and on one shard per CPU,
// alternating, and requires identical statistics from both.
func (w simWorkload) shardSpeedup(e *env, out *outcome) error {
	one, many := w.newEngine(1), w.newEngine(e.nproc)
	var t1, tn []float64
	var st1, stn simStats
	for i := 0; i < 2; i++ {
		_, s1, d1, err := runScenario(one, w.scenario(e.seed, 0), e.trace, nil)
		if err != nil {
			return err
		}
		_, sn, dn, err := runScenario(many, w.scenario(e.seed, 0), e.trace, nil)
		if err != nil {
			return err
		}
		t1, tn = append(t1, d1.Seconds()), append(tn, dn.Seconds())
		st1, stn = s1, sn
	}
	if st1 != stn {
		out.fail("shards=1 and shards=%d runs differ: %+v vs %+v", e.nproc, st1, stn)
	}
	out.set("des.shard_speedup", median(t1)/median(tn), "x")
	out.say("shard_speedup=%.4g (shards=1 %.4g s, shards=%d %.4g s, statistics identical: %v)",
		median(t1)/median(tn), median(t1), e.nproc, median(tn), st1 == stn)
	return nil
}

// checkedSerial runs input 0 on the serial engine without and with the
// online checker: the ratio is the checker's cost, and the checked run's
// observer counts give the estimation timeout ratio.
func (w simWorkload) checkedSerial(e *env, out *outcome) error {
	s := w.scenario(e.seed, 0)
	_, _, plain, err := runScenario(engine{sim: des.New(0)}, s, e.trace, nil)
	if err != nil {
		return err
	}
	s.Check = true
	res, st, checked, err := runScenario(engine{sim: des.New(0)}, s, e.trace, nil)
	if err != nil {
		return err
	}
	peers := w.n - 1
	if w.k > 0 {
		peers = w.k
	}
	out.set("check.overhead_ratio", checked.Seconds()/plain.Seconds(), "ratio")
	out.set("check.violations", float64(len(res.Violations)), "count")
	out.set("protocol.timeout_ratio", ratio(float64(res.EventCounts[obs.KindTimeout]), float64(st.rounds()*peers)), "ratio")
	if len(res.Violations) > 0 {
		out.fail("honest %s run violates the checked bounds: %v", w.name, res.Violations[0])
	}
	return nil
}
