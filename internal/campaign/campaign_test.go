package campaign

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"clocksync/internal/core"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// Every generated schedule must satisfy Definition 2 for the campaign's
// (n, f, Θ) — validity is promised by construction, so a single failing seed
// is a generator bug, not bad luck.
func TestGeneratedSchedulesValid(t *testing.T) {
	cfg := Config{}.withDefaults()
	for seed := int64(0); seed < 500; seed++ {
		s := cfg.Scenario(seed)
		if err := s.Adversary.Validate(cfg.N, cfg.F, cfg.Theta); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v", seed, err)
		}
		if got := len(s.Adversary.Corruptions); got > cfg.MaxCorruptions {
			t.Fatalf("seed %d: %d corruptions > cap %d", seed, got, cfg.MaxCorruptions)
		}
		if b := s.Delay.Bound(); b > cfg.Delta {
			t.Fatalf("seed %d: delay bound %v exceeds δ=%v", seed, b, cfg.Delta)
		}
		for _, c := range s.Adversary.Corruptions {
			if c.From < 0 || float64(c.To) > float64(s.Duration) {
				t.Fatalf("seed %d: corruption [%v, %v] outside the run", seed, c.From, c.To)
			}
		}
	}
}

// The generator is a pure function of the seed: replaying a seed (as the
// shrinker and the -seed flag do) must reproduce the identical scenario.
func TestGeneratorDeterministic(t *testing.T) {
	cfg := Config{}.withDefaults()
	for seed := int64(0); seed < 50; seed++ {
		a, b := cfg.Scenario(seed), cfg.Scenario(seed)
		if !reflect.DeepEqual(a.Adversary, b.Adversary) {
			t.Fatalf("seed %d: schedules differ between generations", seed)
		}
		if !reflect.DeepEqual(a.Delay, b.Delay) {
			t.Fatalf("seed %d: delay models differ between generations", seed)
		}
		if a.DropProb != b.DropProb || a.InitSpread != b.InitSpread {
			t.Fatalf("seed %d: drawn scalars differ between generations", seed)
		}
	}
}

// The generator must produce scenarios scenario.Run accepts and the checker
// must stay silent on the honest protocol: Theorem 5 holds, so any violation
// here is a checker (or simulator) bug.
func TestHonestCampaignClean(t *testing.T) {
	runs := 64
	if testing.Short() {
		runs = 16
	}
	res, err := Run(Config{Runs: runs, Seed: 1})
	if err != nil {
		t.Fatalf("campaign error: %v", err)
	}
	if res.Completed != runs {
		t.Fatalf("completed %d of %d runs", res.Completed, runs)
	}
	for _, f := range res.Failures {
		t.Errorf("seed %d: %d violations on the honest protocol; first: %s",
			f.Seed, len(f.Violations), f.Violations[0])
	}
}

// The streaming scheduler must preserve per-seed accounting even when Runs
// is not a multiple of Workers.
func TestRunBatchesUnevenly(t *testing.T) {
	res, err := Run(Config{Runs: 5, Seed: 100, Workers: 2,
		Duration: 600, MaxCorruptions: 1})
	if err != nil {
		t.Fatalf("campaign error: %v", err)
	}
	if res.Runs != 5 || res.Completed != 5 {
		t.Fatalf("requested/completed = %d/%d, want 5/5", res.Runs, res.Completed)
	}
}

// TestCampaignFailuresInSeedOrder pins the streaming scheduler's ordering
// contract: regardless of which worker finishes which run first, Failures
// come back sorted by seed, and re-running the identical campaign reproduces
// the identical failure set.
func TestCampaignFailuresInSeedOrder(t *testing.T) {
	cfg := Config{Runs: 12, Seed: 1, Workers: 4, Mutate: loosenTrimming}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign error: %v", err)
	}
	if len(a.Failures) < 2 {
		t.Skipf("only %d failures — not enough to check ordering", len(a.Failures))
	}
	for i := 1; i < len(a.Failures); i++ {
		if a.Failures[i-1].Seed >= a.Failures[i].Seed {
			t.Fatalf("failures out of seed order: %d before %d",
				a.Failures[i-1].Seed, a.Failures[i].Seed)
		}
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign error on rerun: %v", err)
	}
	if len(a.Failures) != len(b.Failures) || a.TotalViolations != b.TotalViolations {
		t.Fatalf("campaign not reproducible: %d/%d failures, %d/%d violations",
			len(a.Failures), len(b.Failures), a.TotalViolations, b.TotalViolations)
	}
	for i := range a.Failures {
		if a.Failures[i].Seed != b.Failures[i].Seed {
			t.Fatalf("failure %d: seed %d vs %d across identical campaigns",
				i, a.Failures[i].Seed, b.Failures[i].Seed)
		}
	}
}

// A scenario built by the generator must also run standalone — the replay
// path users follow when a campaign points at a seed.
func TestScenarioReplaysStandalone(t *testing.T) {
	cfg := Config{Duration: 900}.withDefaults()
	s := cfg.Scenario(3)
	if !s.Check {
		t.Fatal("generated scenario does not attach the checker")
	}
	res, err := scenario.Run(s)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("honest replay violated an invariant: %s", v)
	}
}

// panicBehavior is an adversary whose break-in crashes the simulation.
type panicBehavior struct{}

func (panicBehavior) RespondTime(*protocol.Harness, int, simtime.Time) (simtime.Time, bool) {
	return 0, false
}
func (panicBehavior) OnCorrupt(*protocol.Harness, simtime.Time) { panic("injected behavior panic") }
func (panicBehavior) OnRelease(*protocol.Harness, simtime.Time) {}

// TestPanickingRunContained: a 100-run campaign in which one run's adversary
// Behavior panics finishes, and reports exactly that seed — with its family
// — as the campaign's only error. The worker that hit the panic carries on
// with a fresh simulator: every other run's verdict matches the same
// campaign without the injection.
func TestPanickingRunContained(t *testing.T) {
	const target = 42
	cfg := Config{Runs: 100, Seed: 1, Workers: 1, Mutate: loosenTrimming}
	clean, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign without injection: %v", err)
	}
	cfg.Mutate = func(c *core.Config, ctx scenario.BuildContext) {
		loosenTrimming(c, ctx)
		if h := ctx.Harness; ctx.Scenario.Seed == target && ctx.Index == 0 {
			// Break in two minutes into the run: after warm-up, mid-run.
			h.Sim().At(120, func() {
				if !h.Faulty() {
					h.Corrupt(panicBehavior{})
				}
			})
		}
	}
	res, err := Run(cfg)
	if err == nil {
		t.Fatal("panicking run reported no error")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, fmt.Sprintf("seed %d family generic: panic: injected behavior panic", target)) {
		t.Errorf("error does not name the seed, family and panic first:\n%s", msg)
	}
	if n := strings.Count(msg, "family generic: panic"); n != 1 {
		t.Errorf("%d panicking runs reported, want 1", n)
	}
	if res.Completed != cfg.Runs-1 {
		t.Errorf("completed %d runs, want %d", res.Completed, cfg.Runs-1)
	}
	var want []Failure
	for _, f := range clean.Failures {
		if f.Seed != target {
			want = append(want, f)
		}
	}
	if len(want) == 0 {
		t.Fatal("the loosened campaign produced no failures to compare")
	}
	if !reflect.DeepEqual(res.Failures, want) {
		t.Errorf("runs after the panic diverged: %d failures, want %d", len(res.Failures), len(want))
	}
}
