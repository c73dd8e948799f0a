package scenario

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"clocksync/internal/des"
)

// Sweep runs independently-built scenarios, one per seed, concurrently, and
// returns the results in seed order. Simulations are single-threaded and
// fully independent, so a sweep parallelizes perfectly across cores;
// experiments use it to report worst-over-seeds numbers instead of one
// lucky run.
//
// Concurrency comes from RunPool: the calling goroutine always works, plus
// up to min(GOMAXPROCS−1, len(seeds)−1) helpers if the process-wide
// simulation worker pool has tokens free. The pool is shared with
// campaign.Run and the sharded simulator's window workers, so nested
// parallelism — a sweep of sharded runs, a campaign launched next to a
// sweep — composes to at most GOMAXPROCS simulation goroutines per entry
// point instead of multiplying (TestWorkerBudgetComposes pins the ceiling).
// Each worker reuses one simulator arena across its seeds via ReuseSim, so
// steady-state sweeping allocates per run, not per event.
//
// When some seeds fail, Sweep still returns every successful result (failed
// seeds leave a nil slot, preserving seed order) alongside an error joining
// one descriptive error per failed seed — so an experiment can report which
// seed diverged instead of discarding the whole sweep. A seed whose run
// panics fails the same way (RunContained), with the panic and its stack
// in the error, and its worker continues on a fresh simulator.
//
// mk must build a fresh Scenario per call: scenarios can carry stateful
// values (adversary behaviors with internal state, closure-based delay
// models), and sharing those across concurrent runs would race.
func Sweep(mk func(seed int64) Scenario, seeds []int64) ([]*Result, error) {
	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	RunPool(len(seeds), len(seeds)-1, func() func(int) {
		// The construction seed is irrelevant: Run resets the simulator to
		// each scenario's seed before running it.
		sim := des.New(0)
		return func(i int) {
			seed := seeds[i]
			s := mk(seed)
			s.Seed = seed
			if s.Name != "" {
				s.Name = fmt.Sprintf("%s/seed%d", s.Name, seed)
			}
			if s.ReuseSim == nil && s.Shards == 0 && s.ReuseSharded == nil {
				s.ReuseSim = sim
			}
			var panicked bool
			results[i], panicked, errs[i] = RunContained(s)
			if panicked {
				sim = des.New(0) // the panic may have left the arena mid-run
			}
		}
	})
	var failures []error
	for i, err := range errs {
		if err != nil {
			failures = append(failures, fmt.Errorf("seed %d: %w", seeds[i], err))
		}
	}
	return results, errors.Join(failures...)
}

// RunPool runs job indices 0..n−1 on the calling goroutine plus up to
// maxHelpers helpers from the process-wide simulation worker pool
// (des.AcquireWorkers), without a batch barrier: each worker claims the
// next unclaimed index the moment its current job finishes, so one
// straggling job never idles the others. newWorker is called once per
// worker, on that worker's goroutine, and returns the job function bound to
// the worker's own state (a reused simulator arena, a collector); jobs of
// one worker never run concurrently. Sweep and campaign.Run share it.
func RunPool(n, maxHelpers int, newWorker func() func(i int)) {
	var next atomic.Int64
	work := func() {
		job := newWorker()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			job(i)
		}
	}
	helpers := des.AcquireWorkers(min(maxHelpers, n-1))
	var wg sync.WaitGroup
	for w := 0; w < helpers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller is the implicit first worker
	wg.Wait()
	des.ReleaseWorkers(helpers)
}

// RunContained runs one scenario and turns a panic inside it into that
// run's error, with the panicking goroutine's stack — for a shard event of
// a sharded run, the stack des.ShardPanic carries — so one broken run costs
// its seed, not the sweep or campaign around it. panicked reports that
// case: the panic may have left s.ReuseSim mid-run, so the caller must not
// reuse it.
func RunContained(s Scenario) (r *Result, panicked bool, err error) {
	defer func() {
		if pv := recover(); pv != nil {
			stack := debug.Stack()
			if sp, ok := pv.(*des.ShardPanic); ok {
				pv, stack = sp.Value, sp.Stack
			}
			r, panicked, err = nil, true, fmt.Errorf("panic: %v\n%s", pv, stack)
		}
	}()
	r, err = Run(s)
	return r, false, err
}

// WorstDeviation returns the result with the largest measured deviation —
// the conservative representative of a sweep. Nil results (failed seeds in
// a partial sweep) are skipped.
func WorstDeviation(results []*Result) *Result {
	var worst *Result
	for _, r := range results {
		if r == nil {
			continue
		}
		if worst == nil || r.Report.MaxDeviation > worst.Report.MaxDeviation {
			worst = r
		}
	}
	return worst
}
