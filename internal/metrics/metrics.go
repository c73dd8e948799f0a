// Package metrics measures a simulation run against the paper's
// definitions:
//
//   - Synchronization (Definition 3(i)): at each sample instant τ, the
//     maximal clock difference over the processors that were non-faulty
//     throughout [τ−Θ, τ] — the "good set".
//   - Accuracy (Definition 3(ii)): the worst logical clock rate over good
//     stretches, and the largest single adjustment (discontinuity ψ).
//   - Recovery: for every release in the corruption schedule, how long the
//     processor took to re-enter the good processors' bias range.
//
// It is the one implementation of these measurements. The online checker
// (internal/check) asserts its bounds over the same Probe, Sample, Envelope
// and DistanceToGoodRange that the offline Report is built from.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"clocksync/internal/adversary"
	"clocksync/internal/clock"
	"clocksync/internal/des"
	"clocksync/internal/simtime"
	"clocksync/internal/stats"
)

// Sample is one measurement instant.
type Sample struct {
	At        simtime.Time
	Biases    []simtime.Duration // B_p(τ) per processor
	Good      []bool             // non-faulty during [τ−Θ, τ]
	Deviation simtime.Duration   // max pairwise |C_p−C_q| over the good set
}

// DistanceToGoodRange measures how far node's bias sits outside the bias
// range of the good processors other than itself (0 when inside). ok is
// false when no other processor is good at the sample's instant.
func (s Sample) DistanceToGoodRange(node int) (dist float64, ok bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, g := range s.Good {
		if !g || i == node {
			continue
		}
		b := float64(s.Biases[i])
		lo = math.Min(lo, b)
		hi = math.Max(hi, b)
		ok = true
	}
	if !ok {
		return 0, false
	}
	switch b := float64(s.Biases[node]); {
	case b < lo:
		return lo - b, true
	case b > hi:
		return b - hi, true
	default:
		return 0, true
	}
}

// BiasSource exposes one processor's clock as an offset from real time at a
// given instant — the only clock access a measurement needs. *clock.Local
// satisfies it directly (simulation runs); live harnesses adapt a running
// node's measurable offset (see livenet's chaos harness). Implementations
// are read at measurement instants only and need not be monotone between
// reads.
type BiasSource interface {
	Bias(at simtime.Time) simtime.Duration
}

// FromClocks adapts simulator clocks to the BiasSource slice a Probe wants.
func FromClocks(clocks []*clock.Local) []BiasSource {
	out := make([]BiasSource, len(clocks))
	for i, c := range clocks {
		out[i] = c
	}
	return out
}

// Probe measures Definition 3 at an instant: every processor's bias and
// good-set membership under the run's corruption schedule and adversary
// period Θ. It is the one implementation of the good-set rule; the offline
// Recorder and the online checker (internal/check) both measure through it.
type Probe struct {
	Clocks   []BiasSource
	Schedule adversary.Schedule
	Theta    simtime.Duration
}

// Good reports whether node was non-faulty throughout [now−Θ, now]
// (Definition 3's good set).
func (p *Probe) Good(node int, now simtime.Time) bool {
	return !p.Schedule.ControlledWithin(node, simtime.Interval{Lo: now.Add(-p.Theta), Hi: now})
}

// Measure fills s with the measurement at now: every clock's bias, its
// good-set membership, and the good-set deviation, in one pass without a
// scratch slice. s.Biases and s.Good must hold one entry per clock.
func (p *Probe) Measure(s *Sample, now simtime.Time) {
	var lo, hi float64
	anyGood := false
	for i, c := range p.Clocks {
		b := c.Bias(now)
		g := p.Good(i, now)
		s.Biases[i], s.Good[i] = b, g
		if !g {
			continue
		}
		switch x := float64(b); {
		case !anyGood:
			lo, hi, anyGood = x, x, true
		case x < lo:
			lo = x
		case x > hi:
			hi = x
		}
	}
	s.At = now
	s.Deviation = simtime.Duration(hi - lo)
}

// Envelope is one processor's Equation 3 state over its current good
// stretch, advanced in O(1) per sample: the lower-line violation over all
// pairs τ1 < τ2 of the stretch is the drawdown of g(τ) = C(τ) − τ/(1+ρ̃)
// from its running maximum, and the upper-line violation the runup of
// h(τ) = C(τ) − τ·(1+ρ̃) from its running minimum. The zero Envelope is
// outside any stretch.
type Envelope struct {
	gMax, hMin float64
	in         bool
}

// Step extends the stretch with the clock's bias at instant at, under the
// logical drift bound ρ̃, and returns that sample's drawdown below the lower
// rate line and runup above the upper one, measured from the stretch so far
// (both 0 at a stretch's first sample).
func (e *Envelope) Step(at simtime.Time, bias simtime.Duration, rhoTilde float64) (drawdown, runup float64) {
	tau := float64(at)
	c := tau + float64(bias)
	g := c - tau/(1+rhoTilde)
	h := c - tau*(1+rhoTilde)
	if !e.in {
		e.gMax, e.hMin, e.in = g, h, true
		return 0, 0
	}
	drawdown, runup = e.gMax-g, h-e.hMin
	e.gMax = math.Max(e.gMax, g)
	e.hMin = math.Min(e.hMin, h)
	return drawdown, runup
}

// Break ends the stretch; the next Step starts a new one.
func (e *Envelope) Break() { e.in = false }

// Recorder samples processor biases on a fixed period and accumulates the
// paper's metrics.
type Recorder struct {
	sim   *des.Sim
	probe Probe

	samples []Sample
	// biasSlab and goodSlab are carved into the Biases and Good vectors of
	// upcoming samples: one allocation per slab instead of two per sample.
	// Each refill holds slabBytes of vectors (at least one sample), so a run
	// leaves at most one slab's tail unused, whatever its length.
	biasSlab []simtime.Duration
	goodSlab []bool
	// adjustLog records every adjustment with its instant so BuildReport
	// can classify it (good vs recovering, warm-up vs steady state).
	adjustLog      []adjustRecord
	sampleOnAdjust bool
	onSample       func(Sample)

	// shardAdj is non-nil on sharded runs: per-node adjust buffers, each
	// written only by the shard goroutine that owns the node, merged into
	// adjustLog by FinalizeSharded after the run.
	shardAdj [][]adjustRecord
}

type adjustRecord struct {
	at    simtime.Time
	node  int
	delta simtime.Duration
}

// NewRecorder builds a recorder over the given clocks. theta is the
// adversary period Θ used to decide the good set; sched is the corruption
// schedule of the run (empty Schedule for fault-free runs).
func NewRecorder(sim *des.Sim, clocks []*clock.Local, sched adversary.Schedule, theta simtime.Duration) *Recorder {
	if theta <= 0 {
		panic(fmt.Sprintf("metrics: non-positive Θ %v", theta))
	}
	return &Recorder{
		sim:   sim,
		probe: Probe{Clocks: FromClocks(clocks), Schedule: sched, Theta: theta},
	}
}

// SampleOnAdjust, when set before the run, additionally takes a measurement
// sample immediately after every clock adjustment. Periodic sampling alone
// can miss a deviation spike that appears and is corrected between two
// samples; adjustment instants are exactly where biases change
// discontinuously, so sampling there closes the gap.
func (r *Recorder) SampleOnAdjust(enable bool) {
	if r.shardAdj != nil {
		return // sharded runs sample only at barriers; see EnableSharded
	}
	r.sampleOnAdjust = enable
}

// AdjustHook returns a function suitable for protocol.Harness.OnAdjust for
// processor id.
func (r *Recorder) AdjustHook(id int) func(simtime.Time, simtime.Duration) {
	if r.shardAdj != nil {
		// Sharded run: node id's adjustments happen on exactly one shard
		// goroutine, so its private buffer needs no lock. No adjust-triggered
		// sampling either — a consistent cross-shard snapshot only exists at
		// barriers, and BuildReport's adjustment aggregates are
		// order-independent, so the merged log is equivalent.
		return func(at simtime.Time, delta simtime.Duration) {
			r.shardAdj[id] = append(r.shardAdj[id], adjustRecord{at: at, node: id, delta: delta})
		}
	}
	return func(at simtime.Time, delta simtime.Duration) {
		r.adjustLog = append(r.adjustLog, adjustRecord{at: at, node: id, delta: delta})
		if r.sampleOnAdjust {
			r.TakeSample(at)
		}
	}
}

// EnableSharded switches the recorder to sharded mode before hooks are
// handed out: adjustments land in per-node buffers (race-free by node
// ownership) and SampleOnAdjust is ignored — deviation sampling happens only
// on the periodic ticker, which the sharded scenario runner schedules on the
// global barrier queue where every shard is quiesced. Call FinalizeSharded
// after the run, before BuildReport.
func (r *Recorder) EnableSharded() {
	r.shardAdj = make([][]adjustRecord, len(r.probe.Clocks))
	r.sampleOnAdjust = false
}

// FinalizeSharded merges the per-node adjustment buffers into the main log,
// ordered by (instant, node) — a deterministic, partition-independent order.
func (r *Recorder) FinalizeSharded() {
	if r.shardAdj == nil {
		return
	}
	for _, buf := range r.shardAdj {
		r.adjustLog = append(r.adjustLog, buf...)
	}
	sort.Slice(r.adjustLog, func(i, j int) bool {
		a, b := r.adjustLog[i], r.adjustLog[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.node < b.node
	})
	r.shardAdj = nil
}

// OnSample registers a hook invoked with every recorded sample (periodic and
// adjustment-triggered alike); the scenario runner bridges it into the
// observability stream. At most one hook; nil unregisters.
func (r *Recorder) OnSample(fn func(Sample)) { r.onSample = fn }

// Start arms periodic sampling with the given period.
func (r *Recorder) Start(period simtime.Duration) {
	des.NewTicker(r.sim, period, func(now simtime.Time) { r.TakeSample(now) })
}

// slabBytes is the size of one refill of a recorder's sample vectors: a few
// hundred samples of a small cluster, one sample of a cluster of thousands.
const slabBytes = 16 << 10

// TakeSample records one measurement immediately, its vectors carved from
// the recorder's slab.
func (r *Recorder) TakeSample(now simtime.Time) {
	n := len(r.probe.Clocks)
	if len(r.biasSlab) < n {
		more := max(1, slabBytes/(n*(8+1))) // samples per refill: 8 B bias + 1 B flag per clock
		r.biasSlab = make([]simtime.Duration, more*n)
		r.goodSlab = make([]bool, more*n)
	}
	s := Sample{Biases: r.biasSlab[:n:n], Good: r.goodSlab[:n:n]}
	r.biasSlab, r.goodSlab = r.biasSlab[n:], r.goodSlab[n:]
	r.probe.Measure(&s, now)
	r.samples = append(r.samples, s)
	if r.onSample != nil {
		r.onSample(s)
	}
}

// Probe returns the probe the recorder measures with, so an online checker
// of the same run evaluates the good set by the identical rule.
func (r *Recorder) Probe() Probe { return r.probe }

// Last returns the most recent sample (the zero Sample before the first).
// The scenario runner hands the sample taken at a Sync adjustment to the
// online checker through it.
func (r *Recorder) Last() Sample {
	if len(r.samples) == 0 {
		return Sample{}
	}
	return r.samples[len(r.samples)-1]
}

// Samples returns the recorded samples.
func (r *Recorder) Samples() []Sample { return r.samples }

// Report condenses a run.
type Report struct {
	// MaxDeviation is the largest good-set deviation over all samples at or
	// after the measurement start (Theorem 5(i) measures this against Δ).
	MaxDeviation simtime.Duration
	// MeanDeviation averages the good-set deviation over the same samples.
	MeanDeviation simtime.Duration
	// MaxDiscontinuity is the largest single clock adjustment by a
	// processor that was non-faulty throughout the preceding Θ — Theorem
	// 5(ii)'s ψ, which by Definition 3(ii) does not cover recovering
	// processors.
	MaxDiscontinuity simtime.Duration
	// MaxAdjustment is the largest single adjustment by anyone, recovery
	// jumps included.
	MaxAdjustment simtime.Duration
	// WorstRate is the largest |rate − 1| of any processor's logical clock
	// measured over maximal good stretches (Theorem 5(ii)'s ρ̃).
	WorstRate float64
	// AccuracyDrawdown and AccuracyRunup measure Definition 3(ii)/Equation 3
	// directly: over every good stretch and every sample pair τ1 < τ2
	// within it,
	//
	//	C(τ2) − C(τ1) ≥ (τ2−τ1)/(1+ρ̃) − ψ  and  ≤ (τ2−τ1)·(1+ρ̃) + ψ.
	//
	// Drawdown is the worst shortfall of C against the lower rate line
	// (max over pairs of the left-hand violation) and Runup the worst
	// excess over the upper line; Theorem 5(ii) claims both stay ≤ ψ.
	// They are computed with the ρ̃ supplied in ReportOptions.
	AccuracyDrawdown simtime.Duration
	AccuracyRunup    simtime.Duration
	// Recoveries lists the measured recovery of every release event.
	Recoveries []Recovery
}

// Recovery describes how one released processor rejoined.
type Recovery struct {
	Node       int
	ReleasedAt simtime.Time
	// Rejoined is the first sample instant after release at which the
	// processor's bias was within Margin of the good processors' range.
	Rejoined simtime.Time
	// Ok is false when the processor never rejoined before the run ended.
	Ok bool
	// InitialDistance is the bias distance from the good range at release.
	InitialDistance simtime.Duration
}

// Time returns the measured recovery duration.
func (rv Recovery) Time() simtime.Duration { return rv.Rejoined.Sub(rv.ReleasedAt) }

// ReportOptions tunes report computation.
type ReportOptions struct {
	// SkipBefore drops samples earlier than this from deviation statistics
	// (warm-up transients).
	SkipBefore simtime.Time
	// RecoveryMargin is the bias distance from the good range under which a
	// released processor counts as rejoined.
	RecoveryMargin simtime.Duration
	// MinRateWindow is the minimal good-stretch length over which clock
	// rates are measured; shorter stretches are noise-dominated.
	MinRateWindow simtime.Duration
	// LogicalDriftBound is the ρ̃ used for the Equation 3 accuracy
	// measurement (AccuracyDrawdown/Runup); zero disables it.
	LogicalDriftBound float64
}

// BuildReport computes the run report.
func (r *Recorder) BuildReport(opts ReportOptions) Report {
	if opts.RecoveryMargin <= 0 {
		opts.RecoveryMargin = 100 * simtime.Millisecond
	}
	if opts.MinRateWindow <= 0 {
		opts.MinRateWindow = 10 * simtime.Second
	}
	rep := Report{}
	var devs []float64
	for _, s := range r.samples {
		if s.At < opts.SkipBefore {
			continue
		}
		devs = append(devs, float64(s.Deviation))
	}
	if len(devs) > 0 {
		sum := stats.Summarize(devs)
		rep.MaxDeviation = simtime.Duration(sum.Max)
		rep.MeanDeviation = simtime.Duration(sum.Mean)
	}
	for _, a := range r.adjustLog {
		d := a.delta.Abs()
		if d > rep.MaxAdjustment {
			rep.MaxAdjustment = d
		}
		if a.at < opts.SkipBefore {
			continue // warm-up convergence; the guarantees assume a synchronized start
		}
		if d > rep.MaxDiscontinuity && r.probe.Good(a.node, a.at) {
			rep.MaxDiscontinuity = d
		}
	}
	rep.WorstRate = r.worstRate(opts)
	if opts.LogicalDriftBound > 0 {
		rep.AccuracyDrawdown, rep.AccuracyRunup = r.accuracyEnvelope(opts.LogicalDriftBound, opts.SkipBefore)
	}
	rep.Recoveries = r.recoveries(opts)
	return rep
}

// accuracyEnvelope measures the Equation 3 drawdown/runup per processor
// over its maximal good stretches in O(samples) (see Envelope).
func (r *Recorder) accuracyEnvelope(rhoTilde float64, skipBefore simtime.Time) (drawdown, runup simtime.Duration) {
	for id := range r.probe.Clocks {
		var env Envelope
		for _, s := range r.samples {
			if !s.Good[id] || s.At < skipBefore {
				env.Break()
				continue
			}
			d, u := env.Step(s.At, s.Biases[id], rhoTilde)
			drawdown = max(drawdown, simtime.Duration(d))
			runup = max(runup, simtime.Duration(u))
		}
	}
	return drawdown, runup
}

// worstRate measures logical clock rates over maximal stretches of samples
// where a processor is good, using endpoint differences.
func (r *Recorder) worstRate(opts ReportOptions) float64 {
	worst := 0.0
	for id := range r.probe.Clocks {
		runStart := -1
		flush := func(endIdx int) {
			if runStart < 0 {
				return
			}
			first, last := r.samples[runStart], r.samples[endIdx]
			span := last.At.Sub(first.At)
			if span >= opts.MinRateWindow {
				dC := float64(last.Biases[id]-first.Biases[id]) + float64(span)
				rate := dC / float64(span)
				if dev := math.Abs(rate - 1); dev > worst {
					worst = dev
				}
			}
			runStart = -1
		}
		for i, s := range r.samples {
			if s.Good[id] {
				if runStart < 0 {
					runStart = i
				}
			} else {
				flush(i - 1)
			}
		}
		flush(len(r.samples) - 1)
	}
	return worst
}

// recoveries inspects each release event in the schedule.
func (r *Recorder) recoveries(opts ReportOptions) []Recovery {
	var out []Recovery
	for _, c := range r.probe.Schedule.Corruptions {
		rv := Recovery{Node: c.Node, ReleasedAt: c.To}
		seenRelease := false
		for _, s := range r.samples {
			if s.At < c.To {
				continue
			}
			dist, ok := s.DistanceToGoodRange(c.Node)
			if !ok {
				continue
			}
			if !seenRelease {
				rv.InitialDistance = simtime.Duration(dist)
				seenRelease = true
			}
			if dist <= float64(opts.RecoveryMargin) {
				rv.Rejoined = s.At
				rv.Ok = true
				break
			}
		}
		out = append(out, rv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ReleasedAt < out[j].ReleasedAt })
	return out
}

// DeviationSeries extracts (time, deviation) pairs for plotting.
func (r *Recorder) DeviationSeries() (ts []float64, devs []float64) {
	for _, s := range r.samples {
		ts = append(ts, float64(s.At))
		devs = append(devs, float64(s.Deviation))
	}
	return ts, devs
}
