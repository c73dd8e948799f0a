// Command bench runs the repository's Go benchmark bodies standalone via
// testing.Benchmark and writes the results as JSON. One registry lists every
// row, grouped by the committed baseline file that records it at the
// repository root:
//
//   - BENCH_sim.json: the simulation engine (internal/simbench) — what a
//     simulated cluster-minute costs on the reference machine;
//   - BENCH_serve.json: time serving (internal/servebench) — what a served
//     reading costs, with the derived queries per second;
//   - BENCH_obs.json: the instrumentation (internal/obs/obsbench).
//
// Usage:
//
//	bench                     # run every row; print JSON keyed by file
//	bench -update             # regenerate all three committed baselines
//	                          # (in the working directory), like
//	                          # tracestat -update
//	bench -bench ClusterMinute/n256 -cpuprofile cpu.out -memprofile mem.out
//	                          # profile the rows whose name contains the
//	                          # substring; inspect with `go tool pprof`
//	                          # (see docs/PERFORMANCE.md)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"clocksync/internal/obs/obsbench"
	"clocksync/internal/servebench"
	"clocksync/internal/simbench"
)

// entry is one benchmark row of the registry.
type entry struct {
	name string
	fn   func(*testing.B)
}

// suite is the set of rows one baseline file records. qps marks the serving
// rows, whose records carry the derived queries per second.
type suite struct {
	file string
	qps  bool
	rows []entry
}

// suites is the registry. The two large simulation rows run the
// planet-scale regime: fixed fault budget f=10, estimation sampled at k=31 ≥
// 2f+1 peers per round, event queue sharded 8 ways. Serial full-mesh
// simulation would be quadratically unaffordable at these sizes.
var suites = []suite{
	{file: "BENCH_sim.json", rows: []entry{
		{"SimulatorEvents", simbench.SimulatorEvents},
		{"ConvergenceFunction", simbench.ConvergenceFunction},
		{"ClusterMinute/n7", func(b *testing.B) { simbench.ClusterMinute(b, 7) }},
		{"ClusterMinute/n16", func(b *testing.B) { simbench.ClusterMinute(b, 16) }},
		{"ClusterMinute/n64", func(b *testing.B) { simbench.ClusterMinute(b, 64) }},
		{"ClusterMinute/n256", func(b *testing.B) { simbench.ClusterMinute(b, 256) }},
		{"ClusterMinute/n1024", func(b *testing.B) { simbench.ClusterMinuteLarge(b, 1024, 10, 31, 8) }},
		{"ClusterMinute/n4096", func(b *testing.B) { simbench.ClusterMinuteLarge(b, 4096, 10, 31, 8) }},
		{"CampaignThroughput", simbench.CampaignThroughput},
	}},
	{file: "BENCH_serve.json", qps: true, rows: []entry{
		{"NodeRead", servebench.NodeRead},
		{"ServePacketCodec", servebench.ServePacketCodec},
		{"ServeMemTransport", servebench.ServeMemTransport},
	}},
	{file: "BENCH_obs.json", rows: []entry{
		{"ObserverDisabled", obsbench.ObserverDisabled},
		{"ObserverRing", obsbench.ObserverRing},
		{"RoundSpan", obsbench.RoundSpan},
		{"HistogramObserve", obsbench.HistogramObserve},
		{"TraceContextDisabled", obsbench.TraceContextDisabled},
		{"ReplySpan", obsbench.ReplySpan},
	}},
}

// result is one row's record in a JSON baseline. QPS is derived
// (1e9/ns_per_op) and present on serving rows only: for the parallel
// transport benchmark it is the aggregate served queries per second, the
// headline serving number.
type result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	QPS         float64 `json:"qps,omitempty"`
}

func main() {
	update := flag.Bool("update", false, "regenerate the committed baselines BENCH_sim.json, BENCH_serve.json and BENCH_obs.json")
	match := flag.String("bench", "", "run only rows whose name contains this substring")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected rows here")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken after the selected rows here")
	flag.Parse()
	if *update && *match != "" {
		fail(fmt.Errorf("-update regenerates every row; drop -bench"))
	}

	if *cpuprofile != "" {
		fh, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer fh.Close()
		if err := pprof.StartCPUProfile(fh); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	byFile := map[string][]result{}
	for _, s := range suites {
		for _, e := range s.rows {
			if !strings.Contains(e.name, *match) {
				continue
			}
			byFile[s.file] = append(byFile[s.file], run(e, s.qps))
		}
	}
	if *memprofile != "" {
		fh, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		defer fh.Close()
		runtime.GC() // settle live heap so alloc_space dominates the profile
		if err := pprof.WriteHeapProfile(fh); err != nil {
			fail(err)
		}
	}

	if !*update {
		if err := writeJSON(os.Stdout, byFile); err != nil {
			fail(err)
		}
		return
	}
	for _, s := range suites {
		fh, err := os.Create(s.file)
		if err != nil {
			fail(err)
		}
		err = writeJSON(fh, byFile[s.file])
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
	}
}

// run measures one row and reports it on stderr as it completes.
func run(e entry, withQPS bool) result {
	r := testing.Benchmark(e.fn)
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	res := result{
		Name:        e.name,
		N:           r.N,
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if withQPS {
		res.QPS = 1e9 / ns
	}
	fmt.Fprintf(os.Stderr, "%-22s %14.2f ns/op %10d B/op %8d allocs/op\n",
		e.name, ns, res.BytesPerOp, res.AllocsPerOp)
	return res
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
