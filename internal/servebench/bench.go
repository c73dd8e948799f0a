// Package servebench holds the time-serving benchmark bodies, shared between
// `go test -bench` and cmd/bench, which runs them standalone and records the
// JSON baseline BENCH_serve.json.
//
// They cover the three layers a served reading crosses: the wait-free
// in-process read (NodeRead — the path every co-located consumer and the
// serve loop itself take), the binary wire codec (ServePacketCodec), and the
// full query round-trip against a node over the in-process datagram fabric
// (ServeMemTransport — the loopback qps number the baseline pins). The
// companion tests pin the alloc and latency budgets so a regression fails
// plain `go test`, not only a benchmark comparison.
package servebench

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"clocksync/internal/livenet"
)

// newServingNode builds one node on a fresh MemNetwork and starts only its
// serve plumbing-relevant state (the node is not Run; Read works from New,
// and answering is driven directly for the transport benchmark).
func newServingNode(b *testing.B, mn *livenet.MemNetwork) *livenet.Node {
	b.Helper()
	n, err := livenet.New(livenet.Config{
		ID:        0,
		Transport: mn.Transport(0),
		SyncInt:   time.Second,
		MaxWait:   100 * time.Millisecond,
		WayOff:    5 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// NodeRead measures the wait-free snapshot read under full parallelism —
// the in-process serving hot path. Budget: 0 allocs/op, and p99 well under a
// microsecond (TestReadLatency pins it).
func NodeRead(b *testing.B) {
	mn := livenet.NewMemNetwork(livenet.MemNetworkConfig{})
	n := newServingNode(b, mn)
	defer n.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink livenet.Reading
		for pb.Next() {
			sink = n.Read()
		}
		_ = sink
	})
}

// ServePacketCodec measures one query decode + reply encode — the per-packet
// CPU the serve loop spends beyond the two snapshot reads.
func ServePacketCodec(b *testing.B) {
	var qbuf [livenet.ServeQuerySize]byte
	var rbuf [livenet.ServeReplySize]byte
	pkt := livenet.EncodeServeQuery(qbuf[:], livenet.ServeQuery{Nonce: 7, T1: 1234567890})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := livenet.DecodeServeQuery(pkt)
		if err != nil {
			b.Fatal(err)
		}
		livenet.EncodeServeReply(rbuf[:], livenet.ServeReply{
			Nonce: q.Nonce, T1: q.T1, T2: q.T1 + 1, T3: q.T1 + 2,
			Uncertainty: time.Millisecond, Epoch: 1, Node: 0,
		})
	}
}

// ServeMemTransport measures served queries against a running node over the
// in-process datagram fabric. Each parallel worker owns a client endpoint
// and keeps a window of queries in flight — the server-eye view of many
// concurrent clients, so the number measures server capacity rather than a
// single client's ping-pong latency. 1e9/ns_per_op is the loopback
// queries-per-second a single node sustains — the number BENCH_serve.json
// pins (acceptance floor: 1M qps).
func ServeMemTransport(b *testing.B) {
	mn := livenet.NewMemNetwork(livenet.MemNetworkConfig{})
	n := newServingNode(b, mn)
	defer n.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go n.Run(ctx)

	var workerID atomic.Int64
	workerID.Store(99) // client endpoints start above any node id
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tr := mn.Transport(int(workerID.Add(1)))
		defer tr.Close()
		// The window must stay under the endpoints' inbox capacity (512) or
		// the fabric drops packets, UDP-style, and a read below blocks on a
		// reply that never comes.
		const window = 64
		server := livenet.MemAddr(0)
		var qbuf [livenet.ServeQuerySize]byte
		rbuf := make([]byte, livenet.ServeReplySize)
		var nonce uint64
		outstanding := 0
		read := func() {
			nr, _, err := tr.ReadFrom(rbuf)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := livenet.DecodeServeReply(rbuf[:nr]); err != nil {
				b.Fatal(err)
			}
			outstanding--
		}
		for pb.Next() {
			nonce++
			pkt := livenet.EncodeServeQuery(qbuf[:], livenet.ServeQuery{
				Nonce: nonce, T1: time.Now().UnixNano(),
			})
			if err := tr.WriteTo(pkt, server); err != nil {
				b.Fatal(err)
			}
			outstanding++
			if outstanding >= window {
				read()
			}
		}
		for outstanding > 0 {
			read()
		}
	})
}
