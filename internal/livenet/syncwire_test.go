package livenet

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"clocksync/internal/protocol"
)

// FuzzSyncWire drives a keyed node's sync-wire receive path over
// MemTransport the way a corrupted peer can: in the mobile adversary model
// a corrupted node holds valid keys, so besides arbitrary datagrams the
// target sends validly MAC'd messages with hostile fields — int64-extreme
// clocks, nonces never issued or already answered, a From that is not the
// pending peer, unknown types and wrong versions. Each input is delivered
// twice (a replay) and followed by a raw datagram. The node must never
// panic, must make an estimate only for a pending nonce answered by its own
// peer, and every estimate must have a finite D and A ≥ 0.
func FuzzSyncWire(f *testing.F) {
	const (
		pending  = 7 // issued to peer 1, unanswered
		answered = 8 // issued to peer 2, answered before the fuzzed input
	)
	f.Add(1, "r", 1, uint64(pending), int64(0), true, []byte(nil))
	f.Add(1, "r", 1, uint64(pending), int64(math.MaxInt64), true, []byte(nil))
	f.Add(1, "r", 1, uint64(pending), int64(math.MinInt64), true, []byte(nil))
	f.Add(1, "r", 2, uint64(pending), int64(0), true, []byte(nil))   // From is not the pending peer
	f.Add(1, "r", 2, uint64(answered), int64(0), true, []byte(nil))  // already answered
	f.Add(1, "r", 1, uint64(99), int64(0), true, []byte(nil))        // never issued
	f.Add(1, "x", 1, uint64(pending), int64(0), true, []byte(nil))   // unknown type
	f.Add(2, "r", 1, uint64(pending), int64(0), true, []byte(nil))   // wrong version
	f.Add(1, "r", 1, uint64(pending), int64(0), false, []byte(nil))  // unsigned
	f.Add(1, "q", 3, uint64(5), int64(0), true, []byte(nil))         // request: answered
	f.Add(1, "r", -1, uint64(pending), int64(-1), true, []byte(nil)) // negative sender
	f.Add(0, "", 0, uint64(0), int64(0), false, []byte(`{"v":1,"t":"r","f":1,"n":7,"c":1,"m":"AAAA"}`))
	f.Add(0, "", 0, uint64(0), int64(0), false, []byte(`{"v":1e400}`))
	f.Add(0, "", 0, uint64(0), int64(0), false, []byte{0x43, 0x53, 0x01, 0x01})

	key := []byte("fuzz-sync-wire-key")
	mn := NewMemNetwork(MemNetworkConfig{})
	n, err := New(Config{
		ID: 0, F: 1, Key: key,
		SyncInt: time.Second, MaxWait: 100 * time.Millisecond, WayOff: 5 * time.Second,
		Peers:     memPeers(4, 0),
		Transport: mn.Transport(0),
	})
	if err != nil {
		f.Fatal(err)
	}
	defer n.Close()
	sender := mn.Transport(1) // the corrupted peer's endpoint
	defer sender.Close()
	buf := make([]byte, 4096)
	scratch := make([]byte, ServeReplyMaxSize)

	f.Fuzz(func(t *testing.T, v int, typ string, from int, nonce uint64, clock int64, sign bool, raw []byte) {
		deliver := func(pkt []byte) {
			if err := sender.WriteTo(pkt, MemAddr(0)); err != nil {
				t.Fatal(err)
			}
			nr, addr, err := n.tr.ReadFrom(buf)
			if err != nil {
				t.Fatal(err)
			}
			n.receive(buf[:nr], addr, scratch)
		}
		signed := func(m wireMsg) []byte {
			m.MAC = m.mac(key)
			pkt, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			return pkt
		}
		// estimates drains what the node produced for one pending ping.
		estimates := func(ch chan protocol.Estimate) []protocol.Estimate {
			var out []protocol.Estimate
			for {
				select {
				case e := <-ch:
					out = append(out, e)
				default:
					return out
				}
			}
		}
		checkEstimate := func(e protocol.Estimate, peer int) {
			if e.Peer != peer || !e.OK {
				t.Fatalf("estimate %+v attributed to peer %d, want peer %d", e, e.Peer, peer)
			}
			if d := float64(e.D); math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("estimate D = %v is not finite (clock %d)", e.D, clock)
			}
			if !(e.A >= 0) {
				t.Fatalf("estimate A = %v, want ≥ 0", e.A)
			}
		}

		chPending := make(chan protocol.Estimate, 4)
		chAnswered := make(chan protocol.Estimate, 4)
		sentAt := n.clockNow()
		n.mu.Lock()
		n.pending = map[uint64]pendingPing{
			pending:  {peer: 1, attempt: 1, sentAt: sentAt, ch: chPending},
			answered: {peer: 2, attempt: 1, sentAt: sentAt, ch: chAnswered},
		}
		n.mu.Unlock()
		deliver(signed(wireMsg{V: wireVersion, Type: "r", From: 2, Nonce: answered, Clock: sentAt.UnixNano()}))
		if got := estimates(chAnswered); len(got) != 1 {
			t.Fatalf("legitimate reply made %d estimates, want 1", len(got))
		}

		msg := wireMsg{V: v, Type: typ, From: from, Nonce: nonce, Clock: clock}
		pkt, err := json.Marshal(msg)
		if sign {
			pkt = signed(msg)
		} else if err != nil {
			t.Fatal(err)
		}
		deliver(pkt)
		valid := sign && v == wireVersion && typ == "r" && from == 1 && nonce == pending
		got := estimates(chPending)
		switch {
		case valid && len(got) != 1:
			t.Fatalf("the pending peer's signed reply made %d estimates, want 1", len(got))
		case !valid && len(got) != 0:
			t.Fatalf("%+v (signed %v) made an estimate for nonce %d", msg, sign, uint64(pending))
		}
		for _, e := range got {
			checkEstimate(e, 1)
		}

		deliver(pkt) // a replay: the nonce, if it was pending, is answered now
		deliver(raw)
		if extra := append(estimates(chPending), estimates(chAnswered)...); len(extra) != 0 {
			t.Fatalf("replay or raw datagram %q made %d estimates", raw, len(extra))
		}
	})
}
