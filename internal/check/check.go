// Package check is an online invariant checker: at every completed Sync
// execution it asserts the Theorem 5 guarantees the run is supposed to
// satisfy — the deviation envelope over the good set, the per-step
// discontinuity bound, and the Equation 3 accuracy envelope — plus, at
// scheduled checkpoints after every release, the Lemma 7(iii)/Claim 8(iii)
// distance-halving of recovering processors. The first violation is reported
// with full context (τ, node, observed value vs. bound); experiments are
// eyeballed, campaigns are machine-checked.
//
// The checker measures nothing itself. internal/metrics owns every
// definition it evaluates: the Definition 3 good set and the good-set
// deviation (metrics.Probe, metrics.Sample), the Equation 3 recurrence
// (metrics.Envelope) and the distance to the good range
// (Sample.DistanceToGoodRange). What the checker owns is the assertion side:
// the bounds each measurement is held to, the Slack on them, the Limit on
// recorded violations, and the scheduling of the recovery checkpoints.
//
// Round is the one per-round entry point, over a metrics.Sample taken right
// after the adjustment. The simulator passes the metrics recorder's own
// sample at that adjustment (see internal/scenario), so a checked run reads
// each clock once per instant. Emit is the adapter for live harnesses
// (livenet's chaos runs): it measures into scratch the checker owns, then
// calls Round; the recovery checkpoints measure into the same scratch, so a
// checked run's report gains no samples.
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

	"clocksync/internal/analysis"
	"clocksync/internal/des"
	"clocksync/internal/metrics"
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

// Config parameterizes a Checker. Probe (the clocks, corruption schedule
// and Θ) and Bounds come from the run being checked; SkipBefore excludes
// the warm-up transient the guarantees do not cover (they assume a
// synchronized start).
type Config struct {
	metrics.Probe
	Bounds analysis.Bounds
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

	acc  []metrics.Envelope
	recs []recoveryTrack

	// scratch is where Emit and the recovery checkpoints measure: the
	// checker's own sample, never the recorder's.
	scratch metrics.Sample
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
	n := len(cfg.Clocks)
	c.acc = make([]metrics.Envelope, n)
	c.scratch = metrics.Sample{Biases: make([]simtime.Duration, n), Good: make([]bool, n)}
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

// Round checks one completed Sync execution: node applied delta (clock
// already adjusted) at the instant of s, the measurement taken right after
// it — in simulations the metrics recorder's sample at that adjustment. It
// asserts the per-step, deviation and accuracy invariants; instants before
// SkipBefore are ignored. s is only read during the call.
func (c *Checker) Round(node int, delta simtime.Duration, s metrics.Sample) {
	if s.At < c.cfg.SkipBefore {
		return
	}
	c.checkStep(s.At, node, delta, s.Good)
	c.checkDeviation(s)
	c.checkAccuracy(s)
}

// Emit implements obs.Sink for live harnesses: every round event (one
// completed Sync execution, clock already adjusted) is measured once at its
// instant and checked by Round.
func (c *Checker) Emit(e obs.Event) {
	if e.Kind != obs.KindRound {
		return
	}
	now := simtime.Time(e.At)
	if now < c.cfg.SkipBefore {
		return
	}
	c.cfg.Measure(&c.scratch, now)
	c.Round(e.Node, simtime.Duration(e.Fields["delta"]), c.scratch)
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

// checkDeviation asserts Theorem 5(i) at the sample's instant: the spread
// of the good processors' logical clocks is at most Δ. The extreme nodes are
// looked up only to describe a violation.
func (c *Checker) checkDeviation(s metrics.Sample) {
	if !c.exceeds(float64(s.Deviation), float64(c.cfg.Bounds.MaxDeviation)) {
		return
	}
	loNode, hiNode, goodCount := -1, -1, 0
	for i, g := range s.Good {
		if !g {
			continue
		}
		goodCount++
		if loNode < 0 || s.Biases[i] < s.Biases[loNode] {
			loNode = i
		}
		if hiNode < 0 || s.Biases[i] > s.Biases[hiNode] {
			hiNode = i
		}
	}
	c.report(Violation{
		At: s.At, Node: -1, Invariant: InvariantDeviation,
		Observed: s.Deviation, Bound: c.cfg.Bounds.MaxDeviation,
		Detail: fmt.Sprintf("good-set spread between node %d and node %d (%d good)",
			loNode, hiNode, goodCount),
	})
}

// checkAccuracy advances the Equation 3 envelope of every good processor to
// the sample's instant and asserts drawdown/runup stay within Δ. Stretches
// restart whenever a processor leaves the good set or breaks the bound.
func (c *Checker) checkAccuracy(s metrics.Sample) {
	bound := float64(c.cfg.Bounds.MaxDeviation)
	for i, ok := range s.Good {
		env := &c.acc[i]
		if !ok {
			env.Break()
			continue
		}
		d, u := env.Step(s.At, s.Biases[i], c.cfg.Bounds.LogicalDrift)
		switch {
		case c.exceeds(d, bound):
			c.report(Violation{
				At: s.At, Node: i, Invariant: InvariantAccuracy,
				Observed: simtime.Duration(d), Bound: c.cfg.Bounds.MaxDeviation,
				Detail: "clock fell below the (1+ρ̃)⁻¹ rate line by more than Δ",
			})
			env.Break()
		case c.exceeds(u, bound):
			c.report(Violation{
				At: s.At, Node: i, Invariant: InvariantAccuracy,
				Observed: simtime.Duration(u), Bound: c.cfg.Bounds.MaxDeviation,
				Detail: "clock ran above the (1+ρ̃) rate line by more than Δ",
			})
			env.Break()
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

// distanceToGoodRange measures node's distance from the good processors'
// bias range at now (see metrics.Sample.DistanceToGoodRange) into the
// checker's scratch sample.
func (c *Checker) distanceToGoodRange(node int, now simtime.Time) (float64, bool) {
	c.cfg.Measure(&c.scratch, now)
	return c.scratch.DistanceToGoodRange(node)
}
