package metrics

import (
	"math"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/clock"
	"clocksync/internal/des"
	"clocksync/internal/simtime"
)

func mkClocks(biases []simtime.Duration, slopes []float64) []*clock.Local {
	out := make([]*clock.Local, len(biases))
	for i := range biases {
		slope := 1.0
		if i < len(slopes) {
			slope = slopes[i]
		}
		out[i] = clock.NewLocal(clock.NewDrifting(0, simtime.Time(biases[i]), slope))
	}
	return out
}

func TestDeviationOverGoodSet(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0.1, -0.1, 50}, nil)
	// Node 3 is corrupted for the whole run: it must not count.
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 3, From: 0, To: 1000, Behavior: adversary.Crash{}},
	}}
	rec := NewRecorder(sim, clocks, sched, 100)
	rec.TakeSample(10)
	s := rec.Samples()[0]
	if s.Good[3] {
		t.Fatal("corrupted node marked good")
	}
	if !s.Good[0] || !s.Good[1] || !s.Good[2] {
		t.Fatal("healthy nodes marked bad")
	}
	if math.Abs(float64(s.Deviation)-0.2) > 1e-9 {
		t.Fatalf("deviation: got %v, want 0.2", s.Deviation)
	}
}

func TestGoodSetRequiresThetaOfHealth(t *testing.T) {
	// A node released at t=50 stays out of the good set until t=50+Θ.
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0}, nil)
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 1, From: 10, To: 50, Behavior: adversary.Crash{}},
	}}
	rec := NewRecorder(sim, clocks, sched, 100)
	rec.TakeSample(149)
	rec.TakeSample(151)
	if rec.Samples()[0].Good[1] {
		t.Fatal("node good before Θ of health elapsed")
	}
	if !rec.Samples()[1].Good[1] {
		t.Fatal("node still bad after Θ of health")
	}
}

func TestPeriodicSampling(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0}, nil)
	rec := NewRecorder(sim, clocks, adversary.Schedule{}, 100)
	rec.Start(10)
	sim.RunUntil(55)
	if got := len(rec.Samples()); got != 5 {
		t.Fatalf("got %d samples, want 5", got)
	}
}

func TestSampleOnAdjust(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0}, nil)
	rec := NewRecorder(sim, clocks, adversary.Schedule{}, 100)
	rec.SampleOnAdjust(true)
	hook := rec.AdjustHook(0)
	sim.At(3, func() {
		clocks[0].Adjust(0.5)
		hook(3, 0.5)
	})
	sim.Run()
	if len(rec.Samples()) != 1 {
		t.Fatalf("expected 1 adjustment-triggered sample, got %d", len(rec.Samples()))
	}
	s := rec.Samples()[0]
	if s.At != 3 || s.Deviation < 0.49 {
		t.Fatalf("adjustment spike not captured: %+v", s)
	}
}

func TestAdjustHookTracksDiscontinuity(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0}, nil)
	rec := NewRecorder(sim, clocks, adversary.Schedule{}, 100)
	hook := rec.AdjustHook(1)
	hook(5, 0.02)
	hook(6, -0.07)
	hook(7, 0.01)
	rep := rec.BuildReport(ReportOptions{})
	if math.Abs(float64(rep.MaxDiscontinuity)-0.07) > 1e-12 {
		t.Fatalf("discontinuity: got %v, want 0.07", rep.MaxDiscontinuity)
	}
}

func TestDiscontinuityExcludesRecoveringProcessors(t *testing.T) {
	// Definition 3(ii) covers only processors non-faulty during [τ−Θ, τ]:
	// a recovery jump right after release must count toward MaxAdjustment
	// but not toward the ψ measurement.
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0}, nil)
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 1, From: 10, To: 20, Behavior: adversary.Crash{}},
	}}
	rec := NewRecorder(sim, clocks, sched, 100)
	hook := rec.AdjustHook(1)
	hook(25, -40) // recovery jump, 5 s after release (< Θ)
	hook(125, 0.01)
	hook(130, -0.02) // steady state, > Θ after release
	rep := rec.BuildReport(ReportOptions{})
	if math.Abs(float64(rep.MaxAdjustment)-40) > 1e-12 {
		t.Fatalf("MaxAdjustment: got %v, want 40", rep.MaxAdjustment)
	}
	if math.Abs(float64(rep.MaxDiscontinuity)-0.02) > 1e-12 {
		t.Fatalf("MaxDiscontinuity: got %v, want 0.02 (recovery jump must not count)", rep.MaxDiscontinuity)
	}
}

func TestReportDeviationStats(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0.4}, nil)
	rec := NewRecorder(sim, clocks, adversary.Schedule{}, 100)
	rec.TakeSample(10) // deviation 0.4 — inside warm-up, skipped
	clocks[1].Adjust(-0.3)
	rec.TakeSample(20) // deviation 0.1
	clocks[1].Adjust(0.1)
	rec.TakeSample(30) // deviation 0.2
	rep := rec.BuildReport(ReportOptions{SkipBefore: 15})
	if math.Abs(float64(rep.MaxDeviation)-0.2) > 1e-9 {
		t.Fatalf("max deviation: got %v", rep.MaxDeviation)
	}
	if math.Abs(float64(rep.MeanDeviation)-0.15) > 1e-9 {
		t.Fatalf("mean deviation: got %v", rep.MeanDeviation)
	}
}

func TestWorstRateMeasuresDrift(t *testing.T) {
	sim := des.New(1)
	// Slope 1.002 → rate deviation 0.002; no adjustments.
	clocks := mkClocks([]simtime.Duration{0, 0}, []float64{1.002, 1.0})
	rec := NewRecorder(sim, clocks, adversary.Schedule{}, 100)
	for tau := simtime.Time(0); tau <= 100; tau += 10 {
		rec.TakeSample(tau)
	}
	rep := rec.BuildReport(ReportOptions{MinRateWindow: 50})
	if math.Abs(rep.WorstRate-0.002) > 1e-6 {
		t.Fatalf("worst rate: got %v, want 0.002", rep.WorstRate)
	}
}

func TestWorstRateSkipsBadStretches(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0}, []float64{1.0})
	// Node is corrupted in the middle; only the clean stretches count, and
	// both are too short for the rate window.
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 0, From: 30, To: 40, Behavior: adversary.Crash{}},
	}}
	rec := NewRecorder(sim, clocks, sched, 20)
	// Simulate a massive jump while corrupted.
	for tau := simtime.Time(0); tau <= 100; tau += 5 {
		if tau == 35 {
			clocks[0].Adjust(1000)
		}
		rec.TakeSample(tau)
	}
	rep := rec.BuildReport(ReportOptions{MinRateWindow: 50})
	if rep.WorstRate > 0.001 {
		t.Fatalf("corrupted jump leaked into rate measurement: %v", rep.WorstRate)
	}
}

func TestRecoveryMeasurement(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0, 0, 10}, nil)
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 3, From: 0, To: 10, Behavior: adversary.Crash{}},
	}}
	rec := NewRecorder(sim, clocks, sched, 5)
	rec.TakeSample(12) // distance 10
	clocks[3].Adjust(-5)
	rec.TakeSample(14) // distance 5
	clocks[3].Adjust(-4.99)
	rec.TakeSample(16) // distance 0.01 ≤ margin
	rep := rec.BuildReport(ReportOptions{RecoveryMargin: 0.1})
	if len(rep.Recoveries) != 1 {
		t.Fatalf("got %d recoveries", len(rep.Recoveries))
	}
	rv := rep.Recoveries[0]
	if !rv.Ok {
		t.Fatal("recovery not detected")
	}
	if rv.Rejoined != 16 || rv.Time() != 6 {
		t.Fatalf("rejoin: %+v", rv)
	}
	if math.Abs(float64(rv.InitialDistance)-10) > 1e-9 {
		t.Fatalf("initial distance: %v", rv.InitialDistance)
	}
}

func TestRecoveryNeverCompletes(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0, 100}, nil)
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 2, From: 0, To: 10, Behavior: adversary.Crash{}},
	}}
	rec := NewRecorder(sim, clocks, sched, 5)
	for tau := simtime.Time(11); tau < 50; tau += 5 {
		rec.TakeSample(tau)
	}
	rep := rec.BuildReport(ReportOptions{RecoveryMargin: 0.1})
	if rep.Recoveries[0].Ok {
		t.Fatal("stuck node reported as recovered")
	}
}

func TestSeriesExtraction(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{1, 2}, nil)
	rec := NewRecorder(sim, clocks, adversary.Schedule{}, 100)
	rec.TakeSample(5)
	rec.TakeSample(10)
	ts, devs := rec.DeviationSeries()
	if len(ts) != 2 || ts[0] != 5 || ts[1] != 10 {
		t.Fatalf("times: %v", ts)
	}
	if math.Abs(devs[0]-1) > 1e-9 {
		t.Fatalf("devs: %v", devs)
	}
	if b := rec.Samples()[0].Biases[1]; math.Abs(float64(b)-2) > 1e-9 {
		t.Fatalf("sample bias of node 1: %v, want 2", b)
	}
}

func TestNewRecorderPanicsOnBadTheta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRecorder(des.New(1), nil, adversary.Schedule{}, 0)
}
