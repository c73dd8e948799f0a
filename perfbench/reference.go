package main

import (
	"sort"
	"time"
)

// reference is a fixed piece of CPU work in the benchmark's own code: map
// inserts, a random pointer walk and a sort over a few hundred kilobytes,
// without allocating. It shares no code with the program, so a change to
// the program cannot change its cost; but it runs on the same CPU, caches
// and memory, so it slows down with them when other tenants of the host
// take them. The simulator workloads run it between their repetitions and
// report their own CPU time in reference units, which moves far less with
// the host than either CPU time alone. (live's reference is echo.go.)
type reference struct {
	next  []int32
	keys  map[uint64]int32
	xs    []float64
	cpu   time.Duration
	units int
}

const referenceSize = 1 << 14

// referenceShare: after each repetition, the simulator workloads run the
// reference for this fraction of the repetition's CPU time.
const referenceShare = 8

func newReference() *reference {
	return &reference{
		next: make([]int32, referenceSize),
		keys: make(map[uint64]int32, referenceSize),
		xs:   make([]float64, referenceSize),
	}
}

var referenceSink uint64

// unit does one unit of reference work.
func (r *reference) unit() {
	clear(r.keys)
	x := uint64(1)
	for i := range r.next {
		x = x*6364136223846793005 + 1442695040888963407
		r.next[i] = int32(x >> 50) // < referenceSize
		r.keys[x>>40] = int32(i)
		r.xs[i] = float64(x >> 11)
	}
	j := int32(0)
	for i := range r.next {
		j = r.next[(int(j)+i)&(referenceSize-1)]
	}
	sort.Float64s(r.xs)
	referenceSink += uint64(len(r.keys)) + uint64(j) + uint64(r.xs[referenceSize/2])
}

// runFor does whole units of reference work, at least one, until they have
// used the given CPU time.
func (r *reference) runFor(cpu time.Duration) {
	start := cpuTime()
	used := time.Duration(0)
	for r.units == 0 || used < cpu {
		r.unit()
		r.units++
		used = cpuTime() - start
	}
	r.cpu += used
}

// referenceNominalMS is the CPU time of one reference unit, in ms, on the
// 2-core Intel Xeon VM the benchmark was first measured on (go1.24).
const referenceNominalMS = 2.8

// atNominal converts CPU seconds measured now to seconds at the nominal
// reference speed: what the same work took on that VM when it was not
// slowed down by other tenants.
func (r *reference) atNominal(cpuS float64) float64 {
	return cpuS * referenceNominalMS / r.ms()
}

// ms is the mean CPU time of one unit, in ms.
func (r *reference) ms() float64 {
	return float64(r.cpu.Nanoseconds()) / 1e6 / float64(r.units)
}
