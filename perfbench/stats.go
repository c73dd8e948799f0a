package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// subSeed derives the j-th input seed of a workload from its --seed with a
// splitmix64 step, so neighbouring seeds give unrelated inputs.
func subSeed(seed int64, j int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(j+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 2) // non-negative, with room for campaign's Seed+i
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// nsPerCall times fn over iters calls and returns the mean cost in ns.
func nsPerCall(iters int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// medianOf runs probe reps times and returns the median of its results;
// repeating a micro-probe keeps one descheduling from setting its value.
func medianOf(reps int, probe func() float64) float64 {
	vals := make([]float64, reps)
	for i := range vals {
		vals[i] = probe()
	}
	return median(vals)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// cpuTime is the CPU time the process has used so far, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupTime collects the wall and CPU time of each of a workload's
// set-ups.
type setupTime struct {
	wall, cpu []float64 // seconds
}

// start begins timing one set-up; the returned function ends it.
func (st *setupTime) start() (done func()) {
	w0, c0 := time.Now(), cpuTime()
	return func() {
		st.wall = append(st.wall, time.Since(w0).Seconds())
		st.cpu = append(st.cpu, (cpuTime() - c0).Seconds())
	}
}

func (st setupTime) describe(setupS float64) string {
	return fmt.Sprintf("setup_s=%.6g s at reference speed (median of %d set-ups: %.6g s CPU, %.6g s wall)",
		setupS, len(st.cpu), median(st.cpu), median(st.wall))
}
