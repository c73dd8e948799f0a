package campaign

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"clocksync/internal/baseline"
	"clocksync/internal/check"
	"clocksync/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden violation lists under testdata/")

// goldenFailure is one failing run as the golden files record it: the seed,
// its family and every violation field, in detection order.
type goldenFailure struct {
	Seed       int64             `json:"seed"`
	Family     string            `json:"family"`
	Violations []check.Violation `json:"violations"`
}

// renderGolden writes one JSON line per failure. JSON's shortest
// round-trip float formatting makes the files byte-exact: a violation whose
// observed value moves by one ulp changes the file.
func renderGolden(t *testing.T, fails []goldenFailure) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range fails {
		line, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: violation list differs from %s\n--- got ---\n%s--- want ---\n%s", name, path, got, want)
	}
}

// TestGoldenViolationLists pins the checker's complete verdict — every
// violation of every failing seed, byte for byte — on the designed-to-fail
// families, both mutation self-tests and the honest mix (whose golden list
// is empty). Any change to how or when the invariants are evaluated that
// alters a single reported value shows here.
func TestGoldenViolationLists(t *testing.T) {
	honest, err := ParseFamilyMix("delayskew:2,churn,flash,coldstart")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"churn_hostile", Config{Runs: 8, Seed: 1, Families: soloMix(FamilyChurn, true)}},
		{"delayskew_hostile", Config{Runs: 8, Seed: 1, Families: soloMix(FamilyDelaySkew, true)}},
		{"mutate", Config{Runs: 16, Seed: 1, Mutate: loosenTrimming}},
		{"mutate_recovery", Config{Runs: 6, Seed: 1, Families: soloMix(FamilyFlash, false), Mutate: DisableVictimRecovery}},
		{"honest_mix", Config{Runs: 40, Seed: 1, Families: honest}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatalf("campaign error: %v", err)
			}
			fails := make([]goldenFailure, 0, len(res.Failures))
			for _, f := range res.Failures {
				fails = append(fails, goldenFailure{Seed: f.Seed, Family: f.Family, Violations: f.Violations})
			}
			compareGolden(t, c.name, renderGolden(t, fails))
		})
	}
}

// TestGoldenBuilderViolations pins the checked verdict of runs built by
// scenario.SyncBuilder and by baseline builders. Baselines emit no Sync
// rounds, so only the Lemma 7(iii) recovery checkpoints judge them; the
// SyncBuilder runs are judged at every round like the default builder.
func TestGoldenBuilderViolations(t *testing.T) {
	builders := []struct {
		name  string
		build scenario.Builder
	}{
		{"sync", scenario.SyncBuilder(nil)},
		{"boundedcf", baseline.BoundedCFBuilder(0)},
		{"ntpslew", baseline.NTPSlewBuilder(3)},
		{"roundmidpoint", baseline.RoundMidpointBuilder()},
	}
	cfg := Config{Families: FamilyMix{{Family: FamilyFlash, Weight: 1}, {Family: FamilyChurn, Weight: 1}}}
	var fails []goldenFailure
	for _, b := range builders {
		for seed := int64(1); seed <= 4; seed++ {
			s := cfg.Scenario(seed)
			s.Builder = b.build
			res, err := scenario.Run(s)
			if err != nil {
				t.Fatalf("%s seed %d: %v", b.name, seed, err)
			}
			fails = append(fails, goldenFailure{
				Seed:       seed,
				Family:     fmt.Sprintf("%s/%s", b.name, cfg.pickFamily(seed)),
				Violations: res.Violations,
			})
		}
	}
	compareGolden(t, "builders", renderGolden(t, fails))
}
