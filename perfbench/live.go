package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"clocksync/internal/livenet"
	"clocksync/internal/obs"
	"clocksync/internal/simtime"
)

// liveWorkload is an in-process livenet.Cluster on loopback UDP, with an
// HMAC key and injected offsets and drifts, serving time to one open-loop
// client while its nodes keep synchronizing.
type liveWorkload struct {
	n, f    int
	syncInt time.Duration
	maxWait time.Duration
	wayOff  time.Duration
	rate    int           // serve queries per second, open loop
	window  time.Duration // latency percentiles are taken per window
	// converge is the spread under which the cluster counts as converged.
	// The spread about halves each round, from 40 ms to about 1.9 ms after
	// round 4 and 1.0 ms after round 5; 2.5 ms lies well between rounds 3
	// and 4, so every set-up ends on the same round, where a limit near a
	// round's spread would split set-up times between two rounds.
	converge time.Duration
}

func newLiveWorkload() liveWorkload {
	return liveWorkload{n: 4, f: 1, syncInt: 100 * time.Millisecond, maxWait: 30 * time.Millisecond,
		wayOff: 100 * time.Millisecond, rate: 8000, window: time.Second, converge: 2500 * time.Microsecond}
}

// clusterConfig draws the key, offsets and drifts (±50 ppm) from the seed.
// The offsets are evenly spaced over ±20 ms, assigned to nodes in a seeded
// order with ±1 ms of jitter: every seed starts about 40 ms apart, so the
// rounds needed to converge, and with them setup_s, do not depend on the
// seed.
func (w liveWorkload) clusterConfig(seed int64) livenet.ClusterConfig {
	rng := rand.New(rand.NewSource(seed))
	key := make([]byte, 32)
	rng.Read(key)
	offsets := make([]time.Duration, w.n)
	drifts := make([]float64, w.n)
	for i, slot := range rng.Perm(w.n) {
		spaced := -20 + 40*float64(slot)/float64(w.n-1)
		offsets[i] = time.Duration((spaced + rng.Float64()*2 - 1) * float64(time.Millisecond))
		drifts[i] = (rng.Float64()*2 - 1) * 50
	}
	return livenet.ClusterConfig{
		N: w.n, F: w.f, SyncInt: w.syncInt, MaxWait: w.maxWait, WayOff: w.wayOff,
		Key: key, Offsets: offsets, DriftPPM: drifts, Serve: true,
	}
}

// liveSetupReps clusters are stood up in turn; the last one is measured.
const liveSetupReps = 9

// start stands a cluster up: NewCluster, Start and WaitConverged.
func (w liveWorkload) start(cfg livenet.ClusterConfig, tr *obs.Observer) (*livenet.Cluster, error) {
	sp := begin(tr, nil, "livenet.NewCluster")
	c, err := livenet.NewCluster(cfg)
	sp.end(obs.F("n", float64(cfg.N)))
	if err != nil {
		return nil, err
	}
	sp = begin(tr, nil, "livenet.Cluster.Start")
	c.Start()
	sp.end(obs.Fields{})
	sp = begin(tr, nil, "livenet.Cluster.WaitConverged")
	err = c.WaitConverged(w.converge, 3, 10*time.Second)
	sp.end(obs.F("spread_us", us(c.Spread())))
	if err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// nodeCounters sums the nodes' round counters.
func nodeCounters(c *livenet.Cluster) (rounds, skipped, wayOff int64) {
	for _, n := range c.Nodes() {
		m := n.Metrics()
		rounds += m.SyncRounds.Load()
		skipped += m.RoundsSkipped.Load()
		wayOff += m.WayOffJumps.Load()
	}
	return rounds, skipped, wayOff
}

// load is one open-loop run: serve queries to a node, and reference echoes,
// in alternate slices of the same schedule.
type load struct {
	// Serve query j was due dueAt[j] after the first due time, was sent at
	// sent[j] and answered at recv[j] (0 = never).
	dueAt, sent, recv []time.Duration
	// got[j] is set once recv[j] is: the generator reads it while the
	// reader goroutine runs.
	got []atomic.Bool
	// Replies that did not decode, or decoded but did not answer a query
	// of this run with a valid reading.
	badDecode, invalid int
	echoSent           []time.Duration
	echoGot            []atomic.Bool
	echoed             int // echoes that came back
	// Process CPU time spent in each serve slice and in each echo slice.
	serveCPU, echoCPU []time.Duration
	resent            int // queries sent again after going unanswered
}

// querySpanEvery: traced windows record a span for one query in this many.
const querySpanEvery = 16

// maxOutstanding caps the queries sent and not yet answered. In steady state
// about one is; after the host stalls the process, the generator finds many
// queries past due, and sent back to back they would overflow the serve
// socket's receive buffer (a few hundred datagrams) and be lost. With the
// cap they go out as fast as replies come back, still timed from their due
// times, so the stall shows in the latency and not as failed queries.
const maxOutstanding = 32

// replyTimeout is how long a query counts as outstanding without a reply.
const replyTimeout = 200 * time.Millisecond

// resendTries bounds how often the queries still unanswered at the end of
// the run are sent again, with their nonce and due time, each followed by a
// wait of replyTimeout. Loopback UDP drops a datagram only when a socket's
// buffer is full, which a stall of the host can cause; resent, such a query
// is a slow reply and not a failed one.
const resendTries = 3

// admit waits until fewer than limit of the queries before next are
// outstanding, and returns the new first outstanding query.
func admit(got []atomic.Bool, sent []time.Duration, next, oldest, limit int, start time.Time) int {
	for {
		for oldest < next && (got[oldest].Load() || time.Since(start)-sent[oldest] > replyTimeout) {
			oldest++
		}
		if next-oldest < limit {
			return oldest
		}
		pause()
	}
}

// slice is how many consecutive slots of the schedule go to the node, or to
// the echo, before the other gets the next ones: 100 ms. Short slices put
// serving and its reference under the same load from other tenants.
func (w liveWorkload) slice() int { return w.rate / 10 }

// drive fills slots at w.rate, slot i due at start+i/rate, from this
// goroutine: slots of even slices send a serve query to addr, the others an
// echo to echoAddr, each from a socket of its own whose reader goroutine
// matches replies. Some replies in traced windows are recorded as spans.
func (w liveWorkload) drive(addr, echoAddr string, slots int, tr *obs.Observer) (*load, error) {
	serveTP, err := livenet.NewUDPTransport("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	echoTP, err := livenet.NewUDPTransport("127.0.0.1:0")
	if err != nil {
		serveTP.Close()
		return nil, err
	}
	period := time.Second / time.Duration(w.rate)
	slice := w.slice()
	l := &load{}
	for i := 0; i < slots; i++ {
		if (i/slice)%2 == 0 {
			l.dueAt = append(l.dueAt, time.Duration(i)*period)
		}
	}
	total, echoes := len(l.dueAt), slots-len(l.dueAt)
	l.sent, l.recv, l.got = make([]time.Duration, total), make([]time.Duration, total), make([]atomic.Bool, total)
	l.echoSent, l.echoGot = make([]time.Duration, echoes), make([]atomic.Bool, echoes)
	perWindow := int(w.window / period)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]byte, 2048)
		for {
			n, _, err := serveTP.ReadFrom(buf)
			if err != nil {
				return // the transport was closed
			}
			at := time.Since(start)
			r, err := livenet.DecodeServeReply(buf[:n])
			if err != nil {
				l.badDecode++
				continue
			}
			j := int(r.Nonce) - 1
			if j < 0 || j >= total || r.T1 != start.Add(l.dueAt[j]).UnixNano() || r.Node != 0 ||
				r.T3 < r.T2 || r.Uncertainty <= 0 {
				l.invalid++
				continue
			}
			if l.recv[j] != 0 {
				continue // a duplicate; the first reply counts
			}
			l.recv[j] = at
			l.got[j].Store(true)
			if tr != nil && (j/perWindow)%2 == 1 && j%querySpanEvery == 0 {
				tr.EmitSpan(obs.Span{ID: tr.NextSpanID(), Name: "live.query",
					Start: unixS(start.Add(l.dueAt[j])), End: unixS(start.Add(at)),
					Fields: obs.F("nonce", float64(r.Nonce)).F("epoch", float64(r.Epoch))})
			}
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, 2048)
		for {
			n, _, err := echoTP.ReadFrom(buf)
			if err != nil {
				return // the transport was closed
			}
			if n < 8 {
				continue
			}
			if k := binary.BigEndian.Uint64(buf); k < uint64(echoes) && !l.echoGot[k].Swap(true) {
				l.echoed++
			}
		}
	}()
	var qbuf [livenet.ServeQuerySize]byte
	echoQ := make([]byte, livenet.ServeQuerySize)
	var j, k, oldestJ, oldestK int // next and first outstanding query and echo
	last := cpuTime()
	account := func(serving bool) {
		now := cpuTime()
		if serving {
			l.serveCPU = append(l.serveCPU, now-last)
		} else {
			l.echoCPU = append(l.echoCPU, now-last)
		}
		last = now
	}
	for i := 0; i < slots; i++ {
		due := start.Add(time.Duration(i) * period)
		serving := (i/slice)%2 == 0
		waitUntil(due)
		if i > 0 && i%slice == 0 {
			account(!serving) // the slice that just ended
		}
		if serving {
			oldestJ = admit(l.got, l.sent, j, oldestJ, maxOutstanding, start)
			l.sent[j] = time.Since(start)
			pkt := livenet.EncodeServeQuery(qbuf[:], livenet.ServeQuery{Nonce: uint64(j + 1), T1: due.UnixNano()})
			// A query that fails to send gets no reply and is resent.
			_ = serveTP.WriteTo(pkt, addr)
			j++
		} else {
			oldestK = admit(l.echoGot, l.echoSent, k, oldestK, maxOutstanding, start)
			l.echoSent[k] = time.Since(start)
			binary.BigEndian.PutUint64(echoQ, uint64(k))
			_ = echoTP.WriteTo(echoQ, echoAddr)
			k++
		}
	}
	// Let the last slice's replies arrive before it is accounted.
	lastServing := ((slots-1)/slice)%2 == 0
	if lastServing {
		admit(l.got, l.sent, j, oldestJ, 1, start)
	} else {
		admit(l.echoGot, l.echoSent, k, oldestK, 1, start)
	}
	account(lastServing)
	for try := 0; try < resendTries; try++ {
		lost := 0
		for j := range l.dueAt {
			if !l.got[j].Load() {
				lost++
				pkt := livenet.EncodeServeQuery(qbuf[:], livenet.ServeQuery{Nonce: uint64(j + 1), T1: start.Add(l.dueAt[j]).UnixNano()})
				_ = serveTP.WriteTo(pkt, addr)
			}
		}
		if lost == 0 {
			break
		}
		l.resent += lost
		for deadline := time.Now().Add(replyTimeout); time.Now().Before(deadline) && !allSet(l.got); {
			pause()
		}
	}
	closeErr := serveTP.Close()
	if err := echoTP.Close(); closeErr == nil {
		closeErr = err
	}
	wg.Wait()
	return l, closeErr
}

// waitUntil returns at t. The runtime's timers round sub-millisecond sleeps
// up to a millisecond, which at 8000 qps would make the generator itself
// the largest part of every latency, so the last stretch sleeps in the
// kernel, which wakes within tens of microseconds.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - 2*time.Millisecond)
		default:
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
		}
	}
}

func allSet(got []atomic.Bool) bool {
	for i := range got {
		if !got[i].Load() {
			return false
		}
	}
	return true
}

// pause sleeps in the kernel for a few microseconds.
func pause() {
	ts := syscall.NsecToTimespec(int64(20 * time.Microsecond))
	syscall.Nanosleep(&ts, nil)
}

// windows returns, per window of perWindow consecutive serve queries, the
// latency samples (µs from due time to reply) of the answered ones.
func (l *load) windows(perWindow int) [][]float64 {
	var ws [][]float64
	for i := range l.dueAt {
		if i%perWindow == 0 {
			ws = append(ws, nil)
		}
		if l.recv[i] != 0 {
			ws[len(ws)-1] = append(ws[len(ws)-1], us(l.recv[i]-l.dueAt[i]))
		}
	}
	return ws
}

// cpuPerPair returns, for each serve slice and the echo slice after it,
// the process CPU time per answered query over that per echo. Load from
// other tenants of the host that lasts longer than a pair of slices shows
// in both halves and cancels; a shorter burst moves a few pairs, and their
// median not at all.
func (l *load) cpuPerPair(slice int) []float64 {
	var ratios []float64
	for i := range min(len(l.serveCPU), len(l.echoCPU)) {
		answered, echoed := 0, 0
		for j := i * slice; j < min((i+1)*slice, len(l.recv)); j++ {
			if l.recv[j] != 0 {
				answered++
			}
		}
		for k := i * slice; k < min((i+1)*slice, len(l.echoGot)); k++ {
			if l.echoGot[k].Load() {
				echoed++
			}
		}
		if answered > 0 && echoed > 0 && l.echoCPU[i] > 0 {
			ratios = append(ratios, (float64(l.serveCPU[i])/float64(answered))/(float64(l.echoCPU[i])/float64(echoed)))
		}
	}
	return ratios
}

func totalCPU(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func runLive(e *env) (*outcome, error) {
	w := newLiveWorkload()
	cfg := w.clusterConfig(e.seed)
	out := &outcome{config: map[string]any{
		"n": w.n, "f": w.f, "k": 0, "shards": 0, "mode": "full mesh", "transport": "udp loopback",
		"hmac": true, "sync_int_ms": w.syncInt.Milliseconds(), "max_wait_ms": w.maxWait.Milliseconds(),
		"wayoff_ms": w.wayOff.Milliseconds(), "rate_qps": w.rate, "loop": "open",
		"slice_ms":   1000 * w.slice() / w.rate,
		"offsets_ms": durationsMS(cfg.Offsets), "drift_ppm": cfg.DriftPPM, "seed": e.seed,
	}}
	cfg.Observer = e.trace // the nodes' round spans join the benchmark's
	setupTimes := make([]float64, liveSetupReps)
	var c *livenet.Cluster
	for i := range setupTimes {
		start := time.Now()
		var err error
		if c, err = w.start(cfg, e.trace); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes[i] = time.Since(start).Seconds()
		if i < liveSetupReps-1 {
			if err := c.Stop(); err != nil {
				return nil, fmt.Errorf("setup: stopping cluster: %w", err)
			}
		}
	}
	defer c.Stop() // on error paths; Stop is idempotent

	r0, s0, _ := nodeCounters(c)
	var spans0 int // spans kept before serving
	if e.traced() {
		spans0 = len(e.spans())
	}
	// Whole pairs of slices: half the run serves, half echoes.
	pair := 2 * w.slice()
	slots := max(1, int(e.seconds.Seconds()*float64(w.rate))/pair) * pair
	echo, err := startEcho()
	if err != nil {
		return nil, err
	}
	l, err := w.drive(c.ServeAddr(0), echo.addr(), slots, e.trace)
	echo.stop()
	if err != nil {
		return nil, err
	}
	total := len(l.dueAt)
	out.set("peak_rss_mb", peakRSSMB(), "MB")
	r1, s1, _ := nodeCounters(c)
	rounds1, skipped := int(r1-r0), int(s1-s0)

	answered := 0
	var lat, lag []float64
	for i := 0; i < total; i++ {
		lag = append(lag, us(l.sent[i]-l.dueAt[i]))
		if l.recv[i] != 0 {
			answered++
			lat = append(lat, us(l.recv[i]-l.dueAt[i]))
		}
	}
	perWindow := int(w.window * time.Duration(w.rate) / time.Second)
	var p50s, p99s, untracedP50, tracedP50 []float64
	for i, ws := range l.windows(perWindow) {
		if len(ws) == 0 {
			continue
		}
		p50s, p99s = append(p50s, quantile(ws, 0.5)), append(p99s, quantile(ws, 0.99))
		if i%2 == 1 {
			tracedP50 = append(tracedP50, quantile(ws, 0.5))
		} else {
			untracedP50 = append(untracedP50, quantile(ws, 0.5))
		}
	}
	// The operations are the serve queries. A sync round skipped because a
	// stall of the host outlasted MaxWait is the protocol working as
	// designed, and how many there are depends on the host, not on the
	// program: they are reported, and as core.skip_ratio, but not counted
	// as failed.
	out.attempted = total
	out.failed = total - answered
	if l.badDecode > 0 || l.invalid > 0 {
		out.fail("%d serve replies did not decode and %d were not valid readings", l.badDecode, l.invalid)
	}
	if answered == 0 || l.echoed == 0 {
		out.fail("%d serve queries and %d reference echoes were answered", answered, l.echoed)
		return out, nil
	}
	if rounds1 == 0 {
		out.fail("no sync round completed while serving")
	}

	// The cluster must still be converged and synchronizing at the end.
	minSyncs := c.Node(0).Syncs()
	for _, n := range c.Nodes() {
		if s := n.Syncs(); s < minSyncs {
			minSyncs = s
		}
	}
	if err := c.WaitConverged(w.converge, minSyncs+1, 5*time.Second); err != nil {
		out.fail("cluster not converged after serving: %v", err)
	}
	spread := c.Spread()

	cpuMS := float64(totalCPU(l.serveCPU).Nanoseconds()) / 1e6 / float64(answered)
	refMS := float64(totalCPU(l.echoCPU).Nanoseconds()) / 1e6 / float64(l.echoed)
	perPair := median(l.cpuPerPair(w.slice()))
	out.say("cpu_per_op=%.6g reference units (median over pairs of slices; whole run %.6g): %.6g process CPU ms per answered query, %.6g per reference echo (%d echoes; sync rounds and the client included in both)",
		perPair, cpuMS/refMS, cpuMS, refMS, l.echoed)
	out.say("serve_p50_us=%.6g serve_p99_us=%.6g (median over %d windows of %v of serving; whole run p50 %.6g p99 %.6g over %d samples at %d qps, open loop)",
		median(p50s), median(p99s), len(p50s), w.window, quantile(lat, 0.5), quantile(lat, 0.99), len(lat), w.rate)
	out.say("answered %d of %d queries (%d resent); %d sync rounds, %d skipped while serving; spread at end %v",
		answered, total, l.resent, rounds1, skipped, spread)
	out.say("setup_s=%.6g s (median of %d NewCluster → Start → WaitConverged)", median(setupTimes), liveSetupReps)
	// Answered queries per second of serve slices: the offered rate, unless
	// replies were lost.
	out.set("wall.throughput", float64(w.rate)*float64(answered)/float64(total), "1/s")
	out.set("wall.latency_p50_us", median(p50s), "us")
	out.set("wall.latency_p99_us", median(p99s), "us")
	out.set("setup_s", median(setupTimes), "s")
	out.set("cpu_per_op", perPair, "ref")
	out.set("host.cpu_ms_per_op", cpuMS, "ms")
	out.set("host.ref_ms", refMS, "ms")

	if e.traced() {
		var rtt obs.Histogram
		var retries, timeouts, authFails int64
		for _, n := range c.Nodes() {
			m := n.Metrics()
			rtt.Merge(&m.RTT)
			retries += m.Retries.Load()
			timeouts += m.EstimationTimeouts.Load()
			authFails += m.AuthFailures.Load()
		}
		_, _, wayOffs := nodeCounters(c)
		var roundUS []float64 // the measured cluster's rounds while serving
		for _, s := range e.spans()[spans0:] {
			if s.Name == obs.SpanRound {
				roundUS = append(roundUS, s.Dur()*1e6)
			}
		}
		out.set("livenet.round_us_p50", quantile(roundUS, 0.5), "us")
		out.set("livenet.round_us_p90", quantile(roundUS, 0.9), "us")
		out.set("livenet.rtt_us_p50", rtt.Quantile(0.5)*1e6, "us")
		out.set("livenet.retries", float64(retries), "count")
		out.set("livenet.timeouts", float64(timeouts), "count")
		out.set("livenet.auth_failures", float64(authFails), "count")
		out.set("core.syncs", float64(rounds1), "count")
		out.set("core.skip_ratio", ratio(float64(skipped), float64(rounds1+skipped)), "ratio")
		out.set("core.wayoff_ratio", ratio(float64(wayOffs), float64(r1+s1)), "ratio")
		out.set("live.gen_lag_us_p99", quantile(lag, 0.99), "us")
		out.set("obs.trace_overhead", median(tracedP50)/median(untracedP50), "ratio")
		probeRead(e.trace, out, c.Node(0))
		probeCore(e.trace, out, w.f, w.n-1, simtime.Duration(w.wayOff.Seconds()))
		probeSampler(e.trace, out)
		probeCodec(e.trace, out)
		if err := probeUDP(e.trace, out); err != nil {
			return nil, err
		}
	}
	if err := c.Stop(); err != nil {
		out.fail("stopping cluster: %v", err)
	}
	return out, nil
}

func durationsMS(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return ms
}

// probeRead times Node.Read, the wait-free local reading behind every
// serve reply.
func probeRead(tr *obs.Observer, out *outcome, n *livenet.Node) {
	const iters = 100000
	sp := begin(tr, nil, "livenet.Node.Read")
	ns := medianOf(probeBatches, func() float64 {
		return nsPerCall(iters, func() { n.Read() })
	})
	sp.end(obs.F("calls", probeBatches*iters))
	out.set("livenet.read_ns", ns, "ns")
}

// probeUDP ping-pongs a serve-sized datagram between two loopback
// UDPTransports: the floor under serve latency.
func probeUDP(tr *obs.Observer, out *outcome) error {
	a, err := livenet.NewUDPTransport("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := livenet.NewUDPTransport("127.0.0.1:0")
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 2048)
		for {
			n, from, err := b.ReadFrom(buf)
			if err != nil {
				return // closed
			}
			if b.WriteTo(buf[:n], from) != nil {
				return
			}
		}
	}()
	const iters = 2000
	pkt := make([]byte, livenet.ServeQuerySize)
	buf := make([]byte, 2048)
	rtts := make([]float64, 0, iters)
	sp := begin(tr, nil, "livenet.UDPTransport.pingpong")
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := a.WriteTo(pkt, b.LocalAddr()); err != nil {
			break
		}
		if _, _, err := a.ReadFrom(buf); err != nil {
			break
		}
		rtts = append(rtts, us(time.Since(start)))
	}
	sp.end(obs.F("pings", float64(len(rtts))))
	b.Close()
	wg.Wait()
	if len(rtts) < iters {
		return fmt.Errorf("udp ping-pong: %d of %d round trips", len(rtts), iters)
	}
	out.set("livenet.udp_rtt_us_p50", quantile(rtts, 0.5), "us")
	return nil
}
