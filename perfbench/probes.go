package main

import (
	"math/rand"

	"clocksync/internal/core"
	"clocksync/internal/livenet"
	"clocksync/internal/obs"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
)

// Micro-probes time one public call of a layer in a tight loop, inside a
// span, and report the median of five batches.

const probeBatches = 5

// probeCore times core.Converge on an estimate vector of the workload's
// width with f trimmed from each side.
func probeCore(tr *obs.Observer, out *outcome, f, width int, wayOff simtime.Duration) {
	rng := rand.New(rand.NewSource(1))
	ests := make([]protocol.Estimate, width)
	for i := range ests {
		ests[i] = protocol.Estimate{
			Peer: i,
			D:    simtime.Duration(rng.NormFloat64() * 0.01),
			A:    simtime.Duration(rng.Float64() * 0.005),
			OK:   true,
		}
	}
	const iters = 20000
	sp := begin(tr, nil, "core.Converge")
	ns := medianOf(probeBatches, func() float64 {
		return nsPerCall(iters, func() { core.Converge(f, wayOff, ests) })
	})
	sp.end(obs.F("calls", probeBatches*iters).F("width", float64(width)).F("f", float64(f)))
	out.set("core.converge_ns", ns, "ns")
}

// probeSampler times one protocol.PeerSampler draw of k=31 of n=1024 peers.
func probeSampler(tr *obs.Observer, out *outcome) {
	peers := make([]int, 1023)
	for i := range peers {
		peers[i] = i + 1
	}
	s := protocol.NewPeerSampler(peers, 31, 1, 0)
	const iters = 20000
	sp := begin(tr, nil, "protocol.PeerSampler.Sample")
	ns := medianOf(probeBatches, func() float64 {
		return nsPerCall(iters, func() { s.Sample() })
	})
	sp.end(obs.F("calls", probeBatches*iters).F("n", 1024).F("k", 31))
	out.set("protocol.sampler_ns", ns, "ns")
}

// probeCodec times one serve exchange's encoding work: a query encoded and
// decoded, and a reply encoded and decoded.
func probeCodec(tr *obs.Observer, out *outcome) {
	var qbuf [livenet.ServeQueryMaxSize]byte
	var rbuf [livenet.ServeReplyMaxSize]byte
	const iters = 20000
	var bad int
	sp := begin(tr, nil, "livenet.serve_codec")
	ns := medianOf(probeBatches, func() float64 {
		return nsPerCall(iters, func() {
			q, err := livenet.DecodeServeQuery(livenet.EncodeServeQuery(qbuf[:], livenet.ServeQuery{Nonce: 7, T1: 1}))
			if err != nil {
				bad++
			}
			_, err = livenet.DecodeServeReply(livenet.EncodeServeReply(rbuf[:], livenet.ServeReply{
				Nonce: q.Nonce, T1: q.T1, T2: 2, T3: 3, Uncertainty: 4, Epoch: 5}))
			if err != nil {
				bad++
			}
		})
	})
	sp.end(obs.F("calls", probeBatches*iters))
	if bad > 0 {
		out.fail("serve codec round trip failed %d times", bad)
	}
	out.set("livenet.codec_ns", ns, "ns")
}
