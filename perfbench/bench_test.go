package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"clocksync/internal/livenet"
	"clocksync/internal/network"
	"clocksync/internal/simtime"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricSpec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// The simulator workloads measure peak RSS in child processes of their own
// executable, which under go test is the test binary: given the
// benchmark's arguments, it acts as the benchmark.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--workload" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// bound returns BENCHMARK.json's bound for an end-to-end metric.
func (f benchmarkFile) bound(t *testing.T, name string) float64 {
	for _, m := range f.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %s", name)
	return 0
}

func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if m.metricSpec != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m.metricSpec, endToEnd[i])
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, perLayer[i])
		}
	}
}

// The result line is the last line of standard output and carries exactly
// the end-to-end metrics.
func TestResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "mesh", "--seed", "3", "--seconds", "0.2", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, spec := range endToEnd {
		m, ok := metrics[spec.Name]
		if !ok || m.Unit != spec.Unit || m.Value <= 0 {
			t.Errorf("metric %s: %+v (present %v)", spec.Name, m, ok)
		}
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(metrics), len(endToEnd))
	}
	if !strings.Contains(stdout.String(), `"machine"`) || !strings.Contains(stdout.String(), `"config"`) {
		t.Error("the run record lacks its machine or config")
	}

	stdout.Reset()
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

// Two runs of one seed simulate exactly the same thing, on any shard count.
func TestSameSeedSameStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload's input cycle twice")
	}
	cases := []struct {
		name  string
		cycle func(int64) (simStats, error)
	}{
		{"mesh", meshWorkload().cycle},
		{"sampled", sampledWorkload(2).cycle},
		{"sampled-one-shard", sampledWorkload(1).cycle},
		{"campaign", newCampaignWorkload().cycle},
	}
	results := map[string]simStats{}
	for _, c := range cases {
		a, err := c.cycle(5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.cycle(5)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: same seed, different statistics: %+v vs %+v", c.name, a, b)
		}
		if a.Events == 0 || a.Msgs == 0 || a.Syncs == 0 || a.DeviationRatio <= 0 || a.DeviationRatio > 1 {
			t.Errorf("%s: implausible statistics %+v", c.name, a)
		}
		results[c.name] = a
	}
	if results["sampled"] != results["sampled-one-shard"] {
		t.Errorf("sampled statistics depend on the shard count: %+v vs %+v", results["sampled"], results["sampled-one-shard"])
	}
}

// Pinned seeds reproduce their pins.
func TestPinsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs input cycles")
	}
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for name, cycle := range pinCycles(2) {
		for _, seed := range []int64{0, heldOutSeed} {
			want := pins.lookup(name, seed)
			if want == nil {
				t.Fatalf("%s seed %d is not pinned", name, seed)
			}
			got, err := cycle(seed)
			if err != nil {
				t.Fatal(err)
			}
			if got != *want {
				t.Errorf("%s seed %d: got %+v, pinned %+v", name, seed, got, *want)
			}
		}
	}
}

// The reference work allocates nothing, so the program's heap cannot change
// its cost through the garbage collector.
func TestReferenceAllocFree(t *testing.T) {
	r := newReference()
	r.unit()
	if allocs := testing.AllocsPerRun(5, r.unit); allocs != 0 {
		t.Errorf("reference unit allocates %v times", allocs)
	}
}

// The live client alternates serve and echo slices, and every query and
// every echo of a short run comes back, with CPU time accounted to both.
func TestLiveDriveAlternatesSlices(t *testing.T) {
	w := newLiveWorkload()
	c, err := w.start(w.clusterConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	echo, err := startEcho()
	if err != nil {
		t.Fatal(err)
	}
	slots := 4 * w.slice()
	l, err := w.drive(c.ServeAddr(0), echo.addr(), slots, nil)
	echo.stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(l.dueAt) != slots/2 || len(l.echoSent) != slots/2 {
		t.Fatalf("%d serve and %d echo slots of %d, want half each", len(l.dueAt), len(l.echoSent), slots)
	}
	if l.dueAt[w.slice()] != time.Duration(2*w.slice())*time.Second/time.Duration(w.rate) {
		t.Errorf("second serve slice due at %v, want after one echo slice", l.dueAt[w.slice()])
	}
	for j, at := range l.recv {
		if at == 0 {
			t.Fatalf("serve query %d was not answered", j)
		}
	}
	if l.echoed != len(l.echoSent) || l.badDecode != 0 || l.invalid != 0 {
		t.Errorf("%d of %d echoes back, %d bad and %d invalid serve replies", l.echoed, len(l.echoSent), l.badDecode, l.invalid)
	}
	if len(l.serveCPU) != 2 || len(l.echoCPU) != 2 || totalCPU(l.serveCPU) <= 0 || totalCPU(l.echoCPU) <= 0 {
		t.Errorf("CPU time per slice serving %v, echoing %v; want two positive of each", l.serveCPU, l.echoCPU)
	}
	if r := l.cpuPerPair(w.slice()); len(r) != 2 {
		t.Errorf("CPU ratios per pair of slices %v, want 2", r)
	}
}

// A query whose datagram is lost is sent again at the end of the run and
// counts as answered, not failed.
func TestLiveDriveResendsLostQueries(t *testing.T) {
	// A serve endpoint in the test that ignores the first copy of every
	// seventh query.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := map[uint64]bool{}
		buf := make([]byte, 2048)
		reply := make([]byte, livenet.ServeReplyMaxSize)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // closed
			}
			q, err := livenet.DecodeServeQuery(buf[:n])
			if err != nil {
				continue
			}
			if q.Nonce%7 == 0 && !seen[q.Nonce] {
				seen[q.Nonce] = true
				continue
			}
			now := time.Now().UnixNano()
			pkt := livenet.EncodeServeReply(reply, livenet.ServeReply{Nonce: q.Nonce, T1: q.T1, T2: now, T3: now, Uncertainty: time.Millisecond})
			_, _ = conn.WriteToUDPAddrPort(pkt, from)
		}
	}()
	defer func() {
		conn.Close()
		wg.Wait()
	}()
	echo, err := startEcho()
	if err != nil {
		t.Fatal(err)
	}
	w := newLiveWorkload()
	l, err := w.drive(conn.LocalAddr().String(), echo.addr(), 2*w.slice(), nil)
	echo.stop()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(l.dueAt) / 7; l.resent != want {
		t.Errorf("%d queries resent, want %d", l.resent, want)
	}
	for j, at := range l.recv {
		if at == 0 {
			t.Fatalf("serve query %d was not answered", j)
		}
	}
	if l.badDecode != 0 || l.invalid != 0 {
		t.Errorf("%d bad and %d invalid serve replies", l.badDecode, l.invalid)
	}
}

// spinDelay is the default delay model with a busy wait added to every
// sample: the same simulation, only slower.
type spinDelay struct {
	network.UniformDelay
	spin time.Duration
}

func (d spinDelay) Sample(from, to int, rng *rand.Rand) simtime.Duration {
	for start := time.Now(); time.Since(start) < d.spin; {
	}
	return d.UniformDelay.Sample(from, to, rng)
}

// The benchmark has teeth: a deliberately slowed network delay model,
// injected into mesh, raises network.ns_per_msg, and cpu_per_op by more
// than its bound, while the simulated statistics stay identical.
func TestSlowedDelayModelIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the mesh workload twice")
	}
	bound := readBenchmarkFile(t).bound(t, "cpu_per_op")
	measure := func(delay network.DelayModel) (map[string]float64, []string) {
		w := meshWorkload()
		w.delay = delay
		o, spans := newTraceObserver()
		out, err := runSim(&env{seed: 9, seconds: 1500 * time.Millisecond, trace: o, spans: spans, nproc: 2}, w)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, m := range out.metrics {
			got[m.Name] = m.Value
		}
		return got, out.checks
	}
	base, checks := measure(nil)
	if len(checks) > 0 {
		t.Fatalf("baseline checks failed: %v", checks)
	}
	slow, checks := measure(spinDelay{network.NewUniformDelay(5*simtime.Millisecond, 50*simtime.Millisecond), 2 * time.Microsecond})
	if len(checks) > 0 {
		t.Fatalf("slowed run checks failed: %v", checks)
	}
	if slow["cpu_per_op"] <= base["cpu_per_op"]*(1+bound) {
		t.Errorf("cpu_per_op %.4g slowed vs %.4g base: within the %.2f bound", slow["cpu_per_op"], base["cpu_per_op"], bound)
	}
	if slow["network.ns_per_msg"] <= base["network.ns_per_msg"] {
		t.Errorf("network.ns_per_msg %.4g slowed vs %.4g base: did not rise", slow["network.ns_per_msg"], base["network.ns_per_msg"])
	}
	for _, name := range []string{"des.events", "network.msgs", "network.bytes", "core.syncs"} {
		if slow[name] != base[name] {
			t.Errorf("%s changed: %v slowed vs %v base", name, slow[name], base[name])
		}
	}
}
