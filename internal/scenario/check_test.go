package scenario

import (
	"reflect"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/obs"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
)

// lossyCheckedScenario is a checked n=7 run that emits every simulator event
// kind: crashed victims and message loss make estimations time out, and
// rounds left short of 2f+1 estimates skip.
func lossyCheckedScenario() Scenario {
	s := baseScenario()
	s.Adversary = adversary.Rotate(s.N, s.F, simtime.Time(3*simtime.Minute),
		30*simtime.Second, s.Theta, 2,
		func(int) protocol.Behavior { return adversary.Crash{} })
	s.DropProb = 0.15
	s.Check = true
	return s
}

// TestCheckedRunNeedsNoObserver pins the checker's wiring: it reads the
// metrics recorder's samples, so a checked run with no sinks builds no
// observer, and its verdict is the same as with one attached. The bounds
// are tightened a hundredfold so that there is a verdict to compare.
func TestCheckedRunNeedsNoObserver(t *testing.T) {
	s := lossyCheckedScenario()
	s.CheckSlack = 0.01
	plain, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Obs != nil {
		t.Error("a checked run without sinks built an observer")
	}
	if len(plain.Violations) == 0 {
		t.Fatal("tightened bounds produced no violations to compare")
	}
	s.EventSink = obs.SinkFunc(func(obs.Event) {})
	observed, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Violations, observed.Violations) {
		t.Errorf("verdict depends on the observer: %d violations without, %d with",
			len(plain.Violations), len(observed.Violations))
	}
}

// TestEventCountsMatchSink: Result.EventCounts, taken from the run's own
// counters, is the per-kind tally of the events an attached sink receives —
// consumers such as the benchmark's estimation-timeout ratio read it from
// checked runs that have no sink — and a run without a sink reports the
// same tally.
func TestEventCountsMatchSink(t *testing.T) {
	plain, err := Run(lossyCheckedScenario())
	if err != nil {
		t.Fatal(err)
	}
	s := lossyCheckedScenario()
	sunk := map[string]int64{}
	s.EventSink = obs.SinkFunc(func(e obs.Event) { sunk[e.Kind]++ })
	observed, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{obs.KindRound, obs.KindSkip, obs.KindTimeout,
		obs.KindSample, obs.KindCorrupt, obs.KindRelease} {
		if sunk[kind] == 0 {
			t.Errorf("the sink received no %q events; the scenario no longer covers that kind", kind)
		}
	}
	if !reflect.DeepEqual(observed.EventCounts, sunk) {
		t.Errorf("EventCounts %v, the sink counted %v", observed.EventCounts, sunk)
	}
	if !reflect.DeepEqual(plain.EventCounts, sunk) {
		t.Errorf("EventCounts %v without a sink, the sink counted %v", plain.EventCounts, sunk)
	}
}
