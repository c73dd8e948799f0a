// Package check is an online invariant checker: at every completed Sync
// execution it asserts the Theorem 5 guarantees the run is supposed to
// satisfy — the deviation envelope over the good set, the per-step
// discontinuity bound, and the Equation 3 accuracy envelope — plus, at
// scheduled checkpoints after every release, the Lemma 7(iii)/Claim 8(iii)
// distance-halving of recovering processors. The first violation is reported
// with full context (τ, node, observed value vs. bound); experiments are
// eyeballed, campaigns are machine-checked.
//
// The per-round invariants have one evaluation function, Round, over the
// instant, the adjusting node, its delta, and every processor's bias and
// good-set membership at that instant. The simulator feeds it straight from
// the metrics recorder's sample taken at the same adjustment (see
// internal/scenario), so a checked run reads each clock and scans the
// schedule once per instant and needs no observability stream. Emit is the
// adapter for live harnesses (livenet's chaos runs): it turns a round event
// into a Round call by reading the BiasSources into scratch the checker owns.
//
// Two bounds are deliberately not the literal OCR'd constants:
//
//   - Accuracy (Equation 3 drawdown/runup) is checked against Δ, not the
//     literal ψ = ε + C/2: a clock may wander across the width of the good
//     pack, which the literal reading does not allow (see DESIGN.md,
//     "Known deviations", and the discussion in scenario's fuzz test).
//   - Per-step adjustments are checked against MaxStep = Δ/2 + ε (half the
//     deviation envelope plus one reading error), the provable per-execution
//     bound; ψ is the *net* envelope bound, not a per-step one.
package check

import (
	"fmt"
	"math"

	"clocksync/internal/adversary"
	"clocksync/internal/analysis"
	"clocksync/internal/clock"
	"clocksync/internal/des"
	"clocksync/internal/obs"
	"clocksync/internal/simtime"
)

// Invariant names, used in Violation.Invariant and the JSONL output of
// cmd/synccampaign.
const (
	// InvariantDeviation is Theorem 5(i): good-set deviation ≤ Δ.
	InvariantDeviation = "deviation"
	// InvariantStep bounds any single adjustment of a good, warmed-up
	// processor by MaxStep = Δ/2 + ε.
	InvariantStep = "discontinuity"
	// InvariantAccuracy is the Equation 3 rate envelope over good stretches:
	// drawdown/runup against the ρ̃ lines, bounded by Δ.
	InvariantAccuracy = "accuracy"
	// InvariantRecovery is the Lemma 7(iii) halving schedule: a released
	// processor's distance from the good range is ≤ dist₀/2ᵏ (plus residue)
	// k intervals after release, and within Δ before the period ends.
	InvariantRecovery = "recovery"
)

// Violation is one invariant breach, with enough context to locate it in a
// trace: the simulated instant, the processor concerned (−1 when the breach
// is a property of the whole good set), and the observed value against the
// bound it broke.
type Violation struct {
	At        simtime.Time     `json:"at"`
	Node      int              `json:"node"`
	Invariant string           `json:"invariant"`
	Observed  simtime.Duration `json:"observed"`
	Bound     simtime.Duration `json:"bound"`
	Detail    string           `json:"detail,omitempty"`
}

// String renders the violation for humans.
func (v Violation) String() string {
	return fmt.Sprintf("%s violated at τ=%v (node %d): observed %v > bound %v — %s",
		v.Invariant, v.At, v.Node, v.Observed, v.Bound, v.Detail)
}

// BiasSource exposes one processor's clock as an offset from real time at a
// given instant — the only clock access the invariants need. *clock.Local
// satisfies it directly (simulation runs); live harnesses adapt a running
// node's measurable offset (see livenet's chaos harness). Implementations
// are read at check instants only and need not be monotone between reads.
type BiasSource interface {
	Bias(at simtime.Time) simtime.Duration
}

// Scheduler schedules a callback at an absolute instant — the seam that lets
// recovery checkpoints run both on the discrete-event simulator (via Attach)
// and on wall-clock timers in a live cluster.
type Scheduler interface {
	At(t simtime.Time, fn func())
}

// SchedulerFunc adapts a function to a Scheduler.
type SchedulerFunc func(t simtime.Time, fn func())

// At implements Scheduler.
func (f SchedulerFunc) At(t simtime.Time, fn func()) { f(t, fn) }

// FromClocks adapts simulator clocks to the BiasSource slice Config wants.
func FromClocks(clocks []*clock.Local) []BiasSource {
	out := make([]BiasSource, len(clocks))
	for i, c := range clocks {
		out[i] = c
	}
	return out
}

// Config parameterizes a Checker. Clocks, Schedule, Bounds and Theta come
// from the run being checked; SkipBefore excludes the warm-up transient the
// guarantees do not cover (they assume a synchronized start).
type Config struct {
	Clocks   []BiasSource
	Schedule adversary.Schedule
	Bounds   analysis.Bounds
	Theta    simtime.Duration
	// SkipBefore disables deviation/step/accuracy checks before this instant
	// (warm-up convergence from a scattered start).
	SkipBefore simtime.Time
	// Slack multiplies every checked bound; 0 means 1 (exact bounds).
	Slack float64
	// Limit caps the number of recorded violations (0 means 64); further
	// breaches are counted in Dropped.
	Limit int
}

// Checker evaluates the invariants online. Round checks one completed Sync
// execution; Emit adapts it to an obs.Sink for live harnesses; Attach
// schedules the per-release recovery checkpoints on the simulator. The
// checker is driven from one goroutine at a time and must not be shared
// across runs.
type Checker struct {
	cfg   Config
	slack float64
	limit int

	viols   []Violation
	dropped int

	acc  []accStretch
	recs []recoveryTrack

	// biases and good are Emit's scratch: the BiasSources' readings and
	// good-set membership at the event's instant.
	biases []simtime.Duration
	good   []bool
}

// accStretch is the per-node state of the O(1)-per-sample Equation 3
// envelope check (the same recurrence metrics.Recorder uses offline):
// drawdown = max over τ1<τ2 of the lower-line violation = running-max of
// g(τ) = C(τ) − τ/(1+ρ̃) minus its current value, and symmetrically runup
// from the running-min of h(τ) = C(τ) − τ·(1+ρ̃).
type accStretch struct {
	gMax, hMin float64
	in         bool
}

// recoveryTrack follows one release event through its halving checkpoints.
type recoveryTrack struct {
	node    int
	release simtime.Time
	dist0   float64
	have0   bool
	done    bool
}

// New builds a checker for one run.
func New(cfg Config) *Checker {
	c := &Checker{cfg: cfg, slack: cfg.Slack, limit: cfg.Limit}
	if c.slack <= 0 {
		c.slack = 1
	}
	if c.limit <= 0 {
		c.limit = 64
	}
	c.acc = make([]accStretch, len(cfg.Clocks))
	c.biases = make([]simtime.Duration, len(cfg.Clocks))
	c.good = make([]bool, len(cfg.Clocks))
	return c
}

// Attach schedules the Lemma 7(iii) recovery checkpoints on the simulator.
// It is AttachScheduler specialized to *des.Sim, kept for the common case.
func (c *Checker) Attach(sim *des.Sim) {
	c.AttachScheduler(SchedulerFunc(func(t simtime.Time, fn func()) { sim.At(t, fn) }))
}

// AttachScheduler schedules the Lemma 7(iii) recovery checkpoints: for every
// corruption released at τ_r ≥ SkipBefore, the recovering processor's
// distance to the good range is measured at τ_r + k·T for k = 1..K
// (stopping early if the node is corrupted again). Call it once, before the
// run starts. The scheduler decides what "at instant t" means — simulation
// time on *des.Sim, scaled wall-clock timers in a live harness — but the
// callbacks themselves assume the checker's single-threaded discipline, so a
// live scheduler must serialize them with the event feed.
func (c *Checker) AttachScheduler(sim Scheduler) {
	k := c.cfg.Bounds.K
	t := c.cfg.Bounds.T
	for _, cor := range c.cfg.Schedule.Corruptions {
		if cor.To < c.cfg.SkipBefore {
			// Released into the warm-up transient: the "good range" is still
			// converging from the initial spread, so halving against it is
			// not meaningful.
			continue
		}
		// Tracking ends where the node's next corruption begins.
		next := simtime.Time(math.Inf(1))
		for _, other := range c.cfg.Schedule.Corruptions {
			if other.Node == cor.Node && other.From >= cor.To && other.From < next {
				next = other.From
			}
		}
		c.recs = append(c.recs, recoveryTrack{node: cor.Node, release: cor.To})
		idx := len(c.recs) - 1
		sim.At(cor.To, func() { c.recordRelease(idx) })
		for step := 1; step <= k; step++ {
			at := cor.To.Add(simtime.Duration(step) * t)
			if at >= next {
				break
			}
			step := step
			sim.At(at, func() { c.recoveryCheckpoint(idx, step, at) })
		}
	}
}

// Round checks one completed Sync execution: node applied delta at now
// (clock already adjusted), and biases and good hold every processor's bias
// and Definition 3 good-set membership at that instant — a metrics.Sample's
// Biases and Good. It asserts the per-step, deviation and accuracy
// invariants; instants before SkipBefore are ignored. The slices are only
// read during the call.
func (c *Checker) Round(now simtime.Time, node int, delta simtime.Duration, biases []simtime.Duration, good []bool) {
	if now < c.cfg.SkipBefore {
		return
	}
	c.checkStep(now, node, delta, good)
	c.checkDeviation(now, biases, good)
	c.checkAccuracy(now, biases, good)
}

// Emit implements obs.Sink for live harnesses: every round event (one
// completed Sync execution, clock already adjusted) reads each BiasSource
// once and runs Round at that instant.
func (c *Checker) Emit(e obs.Event) {
	if e.Kind != obs.KindRound {
		return
	}
	now := simtime.Time(e.At)
	if now < c.cfg.SkipBefore {
		return
	}
	for i, clk := range c.cfg.Clocks {
		c.biases[i] = clk.Bias(now)
		c.good[i] = c.isGood(i, now)
	}
	c.Round(now, e.Node, simtime.Duration(e.Fields["delta"]), c.biases, c.good)
}

// Violations returns the recorded breaches in detection order.
func (c *Checker) Violations() []Violation { return c.viols }

// Dropped returns how many breaches were discarded beyond the record limit.
func (c *Checker) Dropped() int { return c.dropped }

// Err returns the first violation as an error, or nil when every checked
// invariant held.
func (c *Checker) Err() error {
	if len(c.viols) == 0 {
		return nil
	}
	return fmt.Errorf("check: %s", c.viols[0])
}

func (c *Checker) report(v Violation) {
	if len(c.viols) >= c.limit {
		c.dropped++
		return
	}
	c.viols = append(c.viols, v)
}

// exceeds applies the slack and a 1 ns absolute tolerance for float noise.
func (c *Checker) exceeds(observed, bound float64) bool {
	return observed > bound*c.slack+1e-9
}

// isGood reports whether node was non-faulty throughout [now−Θ, now]
// (Definition 3's good set).
func (c *Checker) isGood(node int, now simtime.Time) bool {
	lookback := simtime.Interval{Lo: now.Add(-c.cfg.Theta), Hi: now}
	return !c.cfg.Schedule.ControlledWithin(node, lookback)
}

// checkStep asserts the per-execution adjustment bound for good processors.
// Recovering processors are exempt by construction: a node corrupted within
// the last Θ is not in the good set, and its WayOff jump is exactly the
// recovery mechanism.
func (c *Checker) checkStep(now simtime.Time, node int, delta simtime.Duration, good []bool) {
	if node < 0 || node >= len(good) || !good[node] {
		return
	}
	if d := delta.Abs(); c.exceeds(float64(d), float64(c.cfg.Bounds.MaxStep)) {
		c.report(Violation{
			At: now, Node: node, Invariant: InvariantStep,
			Observed: d, Bound: c.cfg.Bounds.MaxStep,
			Detail: "single adjustment of a good processor above Δ/2 + ε",
		})
	}
}

// checkDeviation asserts Theorem 5(i) at this instant: the spread of the
// good processors' logical clocks is at most Δ.
func (c *Checker) checkDeviation(now simtime.Time, biases []simtime.Duration, good []bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	loNode, hiNode, goodCount := -1, -1, 0
	for i, g := range good {
		if !g {
			continue
		}
		goodCount++
		b := float64(biases[i])
		if b < lo {
			lo, loNode = b, i
		}
		if b > hi {
			hi, hiNode = b, i
		}
	}
	if goodCount < 2 {
		return
	}
	if spread := hi - lo; c.exceeds(spread, float64(c.cfg.Bounds.MaxDeviation)) {
		c.report(Violation{
			At: now, Node: -1, Invariant: InvariantDeviation,
			Observed: simtime.Duration(spread), Bound: c.cfg.Bounds.MaxDeviation,
			Detail: fmt.Sprintf("good-set spread between node %d and node %d (%d good)",
				loNode, hiNode, goodCount),
		})
	}
}

// checkAccuracy advances the Equation 3 envelope state of every good
// processor to this instant and asserts drawdown/runup stay within Δ.
// Stretches restart whenever a processor leaves the good set.
func (c *Checker) checkAccuracy(now simtime.Time, biases []simtime.Duration, good []bool) {
	rhoT := c.cfg.Bounds.LogicalDrift
	bound := float64(c.cfg.Bounds.MaxDeviation)
	tau := float64(now)
	lower, upper := tau/(1+rhoT), tau*(1+rhoT) // the rate lines at τ
	for i, ok := range good {
		st := &c.acc[i]
		if !ok {
			st.in = false
			continue
		}
		cv := tau + float64(biases[i])
		g := cv - lower
		h := cv - upper
		if !st.in {
			st.gMax, st.hMin, st.in = g, h, true
			continue
		}
		if d := st.gMax - g; c.exceeds(d, bound) {
			c.report(Violation{
				At: now, Node: i, Invariant: InvariantAccuracy,
				Observed: simtime.Duration(d), Bound: c.cfg.Bounds.MaxDeviation,
				Detail: "clock fell below the (1+ρ̃)⁻¹ rate line by more than Δ",
			})
			st.in = false
			continue
		}
		if u := h - st.hMin; c.exceeds(u, bound) {
			c.report(Violation{
				At: now, Node: i, Invariant: InvariantAccuracy,
				Observed: simtime.Duration(u), Bound: c.cfg.Bounds.MaxDeviation,
				Detail: "clock ran above the (1+ρ̃) rate line by more than Δ",
			})
			st.in = false
			continue
		}
		if g > st.gMax {
			st.gMax = g
		}
		if h < st.hMin {
			st.hMin = h
		}
	}
}

// recordRelease captures the recovering processor's starting distance from
// the good range at its release instant.
func (c *Checker) recordRelease(idx int) {
	tr := &c.recs[idx]
	dist, ok := c.distanceToGoodRange(tr.node, tr.release)
	if !ok {
		return // no good processors to measure against; leave have0 unset
	}
	tr.dist0, tr.have0 = dist, true
}

// recoveryCheckpoint asserts the halving envelope k intervals after release:
// dist ≤ max(dist₀/2ᵏ + 2C + 2ε, Δ). The 2C + 2ε residue covers the per-step
// C/2 loss of Claim 8(iii) plus reading error; the Δ floor ends tracking —
// once inside the deviation envelope the processor has rejoined and its
// distance is governed by Theorem 5(i), not the halving schedule.
func (c *Checker) recoveryCheckpoint(idx, k int, at simtime.Time) {
	tr := &c.recs[idx]
	if tr.done || !tr.have0 || c.cfg.Schedule.ActiveAt(tr.node, at) {
		return
	}
	dist, ok := c.distanceToGoodRange(tr.node, at)
	if !ok {
		return
	}
	floor := float64(c.cfg.Bounds.MaxDeviation)
	if dist <= floor {
		tr.done = true
		return
	}
	env := tr.dist0/math.Pow(2, float64(k)) +
		float64(2*c.cfg.Bounds.C) + float64(2*c.cfg.Bounds.Eps)
	if bound := math.Max(env, floor); c.exceeds(dist, bound) {
		c.report(Violation{
			At: at, Node: tr.node, Invariant: InvariantRecovery,
			Observed: simtime.Duration(dist), Bound: simtime.Duration(bound),
			Detail: fmt.Sprintf("distance %d intervals after release at %v not halved (started at %v)",
				k, tr.release, simtime.Duration(tr.dist0)),
		})
		tr.done = true
	}
}

// distanceToGoodRange measures how far node's bias sits outside the bias
// range of the good processors other than itself (0 when inside). ok is
// false when no other processor is good at that instant.
func (c *Checker) distanceToGoodRange(node int, now simtime.Time) (dist float64, ok bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, clk := range c.cfg.Clocks {
		if i == node || !c.isGood(i, now) {
			continue
		}
		b := float64(clk.Bias(now))
		lo = math.Min(lo, b)
		hi = math.Max(hi, b)
		ok = true
	}
	if !ok {
		return 0, false
	}
	b := float64(c.cfg.Clocks[node].Bias(now))
	switch {
	case b < lo:
		return lo - b, true
	case b > hi:
		return b - hi, true
	default:
		return 0, true
	}
}
