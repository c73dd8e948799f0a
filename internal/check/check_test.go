package check_test

import (
	"reflect"
	"strings"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/analysis"
	"clocksync/internal/check"
	"clocksync/internal/clock"
	"clocksync/internal/des"
	"clocksync/internal/metrics"
	"clocksync/internal/obs"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// synthetic builds a checker over hand-placed clock biases — no simulation,
// so each invariant can be triggered in isolation.
func synthetic(biases []simtime.Duration, bounds analysis.Bounds, limit int) (*check.Checker, []*clock.Local) {
	clocks := make([]*clock.Local, len(biases))
	for i, b := range biases {
		clocks[i] = clock.NewLocal(clock.NewDrifting(0, simtime.Time(b), 1))
	}
	return check.New(check.Config{
		Probe:  metrics.Probe{Clocks: metrics.FromClocks(clocks), Theta: 300},
		Bounds: bounds,
		Limit:  limit,
	}), clocks
}

func round(at float64, node int, delta float64) obs.Event {
	return obs.Event{At: at, Kind: obs.KindRound, Node: node,
		Fields: map[string]float64{"delta": delta}}
}

func TestStepViolationReported(t *testing.T) {
	bounds := analysis.Bounds{Eps: 0.01, MaxStep: 0.1, MaxDeviation: 10, LogicalDrift: 1e-4}
	c, _ := synthetic([]simtime.Duration{0, 0, 0}, bounds, 0)
	c.Emit(round(100, 1, 0.5)) // |delta| = 0.5 > MaxStep = 0.1
	vs := c.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(vs), vs)
	}
	v := vs[0]
	if v.Invariant != check.InvariantStep || v.Node != 1 || v.At != 100 {
		t.Fatalf("wrong context: %+v", v)
	}
	if v.Observed != 0.5 || v.Bound != 0.1 {
		t.Fatalf("wrong measurement: observed %v bound %v", v.Observed, v.Bound)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "discontinuity") {
		t.Fatalf("Err() = %v, want a discontinuity error", err)
	}
}

func TestDeviationViolationNamesExtremes(t *testing.T) {
	bounds := analysis.Bounds{Eps: 0.01, MaxStep: 10, MaxDeviation: 0.2, LogicalDrift: 1e-4}
	c, _ := synthetic([]simtime.Duration{0, 1, 0.05}, bounds, 0)
	c.Emit(round(50, 0, 0))
	vs := c.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(vs), vs)
	}
	v := vs[0]
	if v.Invariant != check.InvariantDeviation || v.Node != -1 {
		t.Fatalf("wrong context: %+v", v)
	}
	if v.Observed != 1 {
		t.Fatalf("spread = %v, want 1s", v.Observed)
	}
	if !strings.Contains(v.Detail, "node 0") || !strings.Contains(v.Detail, "node 1") {
		t.Fatalf("detail does not name the extreme nodes: %q", v.Detail)
	}
}

func TestCleanEventsReportNothing(t *testing.T) {
	bounds := analysis.Bounds{Eps: 0.01, MaxStep: 0.1, MaxDeviation: 0.2, LogicalDrift: 1e-4}
	c, _ := synthetic([]simtime.Duration{0, 0.01, 0.02}, bounds, 0)
	for i := 0; i < 10; i++ {
		c.Emit(round(float64(10*i), i%3, 0.001))
	}
	if err := c.Err(); err != nil {
		t.Fatalf("clean run reported: %v", err)
	}
	if c.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0", c.Dropped())
	}
}

func TestViolationLimitDropsExcess(t *testing.T) {
	bounds := analysis.Bounds{Eps: 0.01, MaxStep: 0.1, MaxDeviation: 10, LogicalDrift: 1e-4}
	c, _ := synthetic([]simtime.Duration{0, 0}, bounds, 2)
	for i := 0; i < 5; i++ {
		c.Emit(round(float64(i), 0, 1)) // every event breaks the step bound
	}
	if got := len(c.Violations()); got != 2 {
		t.Fatalf("recorded %d violations, want limit 2", got)
	}
	if c.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", c.Dropped())
	}
}

func TestCorruptedNodeExemptFromChecks(t *testing.T) {
	bounds := analysis.Bounds{Eps: 0.01, MaxStep: 0.1, MaxDeviation: 0.2, LogicalDrift: 1e-4}
	clocks := []*clock.Local{
		clock.NewLocal(clock.NewDrifting(0, 0, 1)),
		clock.NewLocal(clock.NewDrifting(0, 5, 1)), // far out, but corrupted
		clock.NewLocal(clock.NewDrifting(0, 0.01, 1)),
	}
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 1, From: 90, To: 120, Behavior: adversary.Crash{}},
	}}
	c := check.New(check.Config{Probe: metrics.Probe{Clocks: metrics.FromClocks(clocks), Schedule: sched, Theta: 300}, Bounds: bounds})
	// Node 1 was corrupted within the last Θ: its 5 s bias must not count
	// against the good-set spread, nor its jump against the step bound.
	c.Emit(round(200, 1, 3))
	if err := c.Err(); err != nil {
		t.Fatalf("recovering node tripped a good-set invariant: %v", err)
	}
}

func TestWarmupSkipped(t *testing.T) {
	bounds := analysis.Bounds{Eps: 0.01, MaxStep: 0.1, MaxDeviation: 0.2, LogicalDrift: 1e-4}
	clocks := []*clock.Local{
		clock.NewLocal(clock.NewDrifting(0, 0, 1)),
		clock.NewLocal(clock.NewDrifting(0, 2, 1)),
	}
	c := check.New(check.Config{Probe: metrics.Probe{Clocks: metrics.FromClocks(clocks), Theta: 300}, Bounds: bounds, SkipBefore: 50})
	c.Emit(round(10, 0, 5)) // violates everything, but inside warm-up
	if err := c.Err(); err != nil {
		t.Fatalf("warm-up event checked: %v", err)
	}
	c.Emit(round(60, 0, 5))
	if err := c.Err(); err == nil {
		t.Fatal("post-warm-up violation not reported")
	}
}

// End-to-end: the honest protocol with a mid-run smash-and-release must pass
// every invariant — recovery jumps are exempt by the good-set definition and
// the halving checkpoints tolerate the protocol's actual convergence.
func TestHonestScenarioWithRecoveryIsClean(t *testing.T) {
	s := scenario.Scenario{
		Name:       "check-recovery",
		Seed:       11,
		N:          7,
		F:          2,
		Duration:   20 * simtime.Minute,
		Theta:      5 * simtime.Minute,
		Rho:        1e-4,
		SyncInt:    10 * simtime.Second,
		InitSpread: 50 * simtime.Millisecond,
		Check:      true,
		Adversary: adversary.Schedule{Corruptions: []adversary.Corruption{
			{Node: 2, From: 600, To: 650,
				Behavior: adversary.ClockSmash{Offset: 5 * simtime.Second}},
		}},
	}
	res, err := scenario.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("honest run violated: %s", v)
	}
	found := false
	for _, rv := range res.Report.Recoveries {
		if rv.Node == 2 && rv.Ok {
			found = true
		}
	}
	if !found {
		t.Error("smashed node never recovered — scenario not exercising the checker's recovery path")
	}
}

// TestRoundMatchesEmit: Emit is only an adapter — measuring the clocks and
// the schedule at the event's instant and calling Round — so feeding Round
// the metrics recorder's sample at the same instants, as the simulator does,
// yields the same violations, in the same order, for every invariant.
func TestRoundMatchesEmit(t *testing.T) {
	bounds := analysis.Bounds{Eps: 0.01, MaxStep: 0.1, MaxDeviation: 0.2, LogicalDrift: 1e-4}
	offsets := []simtime.Duration{0, 0.5, 0.05, -0.3}
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{{Node: 2, From: 10, To: 20}}}
	mk := func() (*check.Checker, []*clock.Local) {
		clocks := make([]*clock.Local, len(offsets))
		for i, b := range offsets {
			clocks[i] = clock.NewLocal(clock.NewDrifting(0, simtime.Time(b), 1+float64(i)*1e-3))
		}
		return check.New(check.Config{Probe: metrics.Probe{Clocks: metrics.FromClocks(clocks), Schedule: sched, Theta: 300}, Bounds: bounds}), clocks
	}
	viaEmit, _ := mk()
	viaRound, clocks := mk()
	rec := metrics.NewRecorder(des.New(1), clocks, sched, 300)
	for k := 0; k < 20; k++ {
		at, node, delta := float64(100*k), k%len(clocks), 0.04*float64(k%5)
		viaEmit.Emit(round(at, node, delta))
		rec.TakeSample(simtime.Time(at))
		viaRound.Round(node, simtime.Duration(delta), rec.Last())
	}
	got, want := viaRound.Violations(), viaEmit.Violations()
	kinds := map[string]bool{}
	for _, v := range want {
		kinds[v.Invariant] = true
	}
	if !kinds[check.InvariantStep] || !kinds[check.InvariantDeviation] || !kinds[check.InvariantAccuracy] {
		t.Fatalf("the scripted rounds do not trip every per-round invariant: %v", kinds)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Round and Emit disagree:\nRound: %v\nEmit:  %v", got, want)
	}
}
