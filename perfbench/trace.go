package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"clocksync/internal/obs"
)

// A traced run records spans around the benchmark's calls into each layer
// through an obs.Observer; untraced runs pass a nil observer, on which every
// helper here does nothing. Span times are Unix seconds, the timebase live
// nodes use for their own spans.

// newTraceObserver returns an observer that keeps every span in memory, and
// a function returning the spans kept so far.
func newTraceObserver() (*obs.Observer, func() []obs.Span) {
	var mu sync.Mutex
	var kept []obs.Span
	o := obs.NewObserver()
	o.AddSpanSink(obs.SpanSinkFunc(func(s obs.Span) {
		mu.Lock()
		kept = append(kept, s)
		mu.Unlock()
	}))
	return o, func() []obs.Span {
		mu.Lock()
		defer mu.Unlock()
		return append([]obs.Span(nil), kept...)
	}
}

// span is an open span; end closes it with its counts.
type span struct {
	o      *obs.Observer
	id     obs.SpanID
	parent obs.SpanID
	name   string
	start  time.Time
}

// begin opens a span named after the layer call it surrounds. A nil
// observer returns a nil span, whose end does nothing.
func begin(o *obs.Observer, parent *span, name string) *span {
	if o == nil {
		return nil
	}
	s := &span{o: o, id: o.NextSpanID(), name: name, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	return s
}

func (s *span) end(fields obs.Fields) {
	if s == nil {
		return
	}
	s.o.EmitSpan(obs.Span{ID: s.id, Parent: s.parent, Name: s.name,
		Start: unixS(s.start), End: unixS(time.Now()), Fields: fields})
}

func unixS(t time.Time) float64 { return float64(t.UnixNano()) / 1e9 }

// writeSpans writes spans as obs span JSONL under $PERFBENCH_OUT (default
// .bench_build/perfbench) and returns the file's path.
func writeSpans(spans []obs.Span, workload string, seed int64) (string, error) {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = filepath.Join(".bench_build", "perfbench")
	}
	dir = filepath.Join(dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	sink := obs.NewJSONL(f)
	for _, s := range spans {
		sink.EmitSpan(s)
	}
	if err := sink.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
