package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// spanRecord is one finished span as written to the span file. Times
// are microseconds since the tracer started. A span covers one call the
// harness made into a layer's public API; the program itself is not
// instrumented.
type spanRecord struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"` // 0 for a root span
	Op      int64   `json:"op"`     // shared by a root span and all its descendants
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	SelfUs  float64 `json:"self_us"` // duration minus the time covered by child spans
}

// tracer keeps finished spans in memory until the run ends. A nil
// tracer records nothing and its spans are nil, which is how the
// untraced passes of a traced run measure the tracing overhead.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	ops   atomic.Int64
	mu    sync.Mutex
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span. Its children end on the goroutine that opened
// it; concurrent calls (the load generator's requests) are roots.
type span struct {
	tr       *tracer
	up       *span
	id, op   int64
	name     string
	start    time.Time
	childDur time.Duration
}

// root opens a span that starts a new operation.
func (t *tracer) root(name string) *span {
	if t == nil {
		return nil
	}
	return &span{tr: t, id: t.ids.Add(1), op: t.ops.Add(1), name: name, start: time.Now()}
}

// child opens a span caused by p, in p's operation.
func (p *span) child(name string) *span {
	if p == nil {
		return nil
	}
	t := p.tr
	return &span{tr: t, up: p, id: t.ids.Add(1), op: p.op, name: name, start: time.Now()}
}

// end closes the span, records it and returns its self time.
func (p *span) end() time.Duration {
	if p == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(p.start)
	if p.up != nil {
		p.up.childDur += d
	}
	self := d - p.childDur
	var parent int64
	if p.up != nil {
		parent = p.up.id
	}
	t := p.tr
	rec := spanRecord{
		ID: p.id, Parent: parent, Op: p.op, Name: p.name,
		StartUs: float64(p.start.Sub(t.t0)) / 1e3,
		EndUs:   float64(now.Sub(t.t0)) / 1e3,
		SelfUs:  float64(self) / 1e3,
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
	return self
}

// write stores every recorded span as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
