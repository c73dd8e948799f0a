// Package obsbench holds the observability benchmark bodies, shared between
// `go test -bench` (internal/obs) and cmd/bench, which runs them standalone
// and records the JSON baseline BENCH_obs.json.
//
// They measure the two costs the instrumentation design promises to control:
// the disabled path (no sinks attached — the default for every simulation
// and live node) must be allocation-free, and the enabled path (ring sink,
// full round span tree) must stay cheap enough to leave on in production.
package obsbench

import (
	"testing"

	"clocksync/internal/obs"
)

// ObserverDisabled measures the no-sink fast path: tallying an event on an
// observer with no sinks, plus the span guard every instrumented layer runs
// per round. This path sits inside every protocol Sync, so it must report
// 0 allocs/op.
func ObserverDisabled(b *testing.B) {
	o := obs.NewObserver()
	e := obs.Event{Kind: obs.KindRound, Node: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Emit(e)
		if o.SpansEnabled() {
			b.Fatal("spans enabled without a span sink")
		}
	}
}

// ObserverRing measures event fan-out into the in-memory ring buffer — the
// cheapest enabled configuration (syncsim -metrics-addr, Node.ServeMetrics).
func ObserverRing(b *testing.B) {
	o := obs.NewObserver(obs.NewRing(1024))
	e := obs.Event{
		Kind: obs.KindRound, Node: 1, At: 12.5,
		Fields: map[string]float64{"delta": -0.004, "failed": 1, "wayoff": 0},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Emit(e)
	}
}

// RoundSpan measures one fully-traced Sync round with n−1 = 6 peers: ID
// issue, estimate spans, reading spans, the adjustment span and the round
// span, fanned into a span ring — the per-round cost of -trace-spans.
func RoundSpan(b *testing.B) {
	o := obs.NewObserver()
	o.AddSpanSink(obs.NewSpanRing(1024))
	const peers = 6
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round := o.NextSpanID()
		for p := 0; p < peers; p++ {
			est := o.NextSpanID()
			o.EmitSpan(obs.Span{
				ID: est, Parent: round, Name: obs.SpanEstimate, Node: 0,
				Start: 1, End: 1.05,
				Fields: obs.F("peer", float64(p)).F("d", 0.01).F("a", 0.002).F("rtt", 0.05).F("ok", 1),
			})
			o.EmitSpan(obs.Span{
				ID: o.NextSpanID(), Parent: est, Name: obs.SpanReading, Node: 0,
				Start: 1.06, End: 1.06,
				Fields: obs.F("peer", float64(p)).F("accepted", 1).F("lowtrim", 0).F("hightrim", 0),
			})
		}
		o.EmitSpan(obs.Span{
			ID: o.NextSpanID(), Parent: round, Name: obs.SpanAdjust, Node: 0,
			Start: 1.06, End: 1.06, Fields: obs.F("delta", -0.004).F("wayoff", 0),
		})
		o.EmitSpan(obs.Span{
			ID: round, Name: obs.SpanRound, Node: 0, Start: 1, End: 1.06,
			Fields: obs.F("delta", -0.004).F("wayoff", 0),
		})
	}
}

// TraceContextDisabled measures the per-message cost trace-context
// propagation adds when no span sink is attached — the default for every
// node. The wire layers run exactly this per outgoing request: one
// SpansEnabled guard deciding whether to issue and stamp a span ID. It must
// report 0 allocs/op (the disabled-observer acceptance bound for the fleet
// telemetry plane).
func TraceContextDisabled(b *testing.B) {
	o := obs.NewObserver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var span obs.SpanID
		if o.SpansEnabled() {
			span = o.NextSpanID()
		}
		if span != 0 {
			b.Fatal("span issued without a span sink")
		}
	}
}

// ReplySpan measures the responder-side half of a cross-node joined exchange:
// emitting one zero-duration reply span — under the requester's propagated
// span ID — with the origin/epoch/uncertainty payload, into a span ring. This
// runs once per answered request on every traced node.
func ReplySpan(b *testing.B) {
	o := obs.NewObserver()
	o.AddSpanSink(obs.NewSpanRing(1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.EmitSpan(obs.Span{
			ID: obs.SpanID(uint64(i + 1)), Name: obs.SpanReply, Node: 1,
			Start: 1, End: 1,
			Fields: obs.F("origin", 0).F("origin_epoch", 41).
				F("node_time", 1.5).F("unc", 0.0004).F("epoch", 42),
		})
	}
}

// HistogramObserve measures one lock-free histogram observation — the
// per-estimate cost of the RTT/error/adjustment histograms.
func HistogramObserve(b *testing.B) {
	var h obs.Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.042)
	}
}
