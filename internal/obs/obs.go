// Package obs is the pipeline-wide observability layer: a
// dependency-free registry of counters, gauges and histograms, plus
// pluggable dump sinks (sink.go) and an opt-in debug HTTP server
// exposing the registry and net/http/pprof (debug.go).
//
// The design follows DTrace's "always on, near-zero overhead when
// unused" discipline: every instrument is a single atomic operation on
// the hot path, a nil *Registry produces nil instruments, and every
// instrument method is safe on a nil receiver — instrumented code never
// branches on "is observability configured", it just calls Add/Observe
// and the nil receiver turns it into a no-op. Rendering (Prometheus
// text, JSON) happens only when a sink is asked to dump, never on the
// recording path.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the metric families of a Registry.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Desc is the static identity of one metric: its exposition name, help
// string, kind, and an optional constant label set rendered verbatim
// inside the braces of the Prometheus exposition (e.g.
// `endpoint="/v1/rules"`). Several metrics may share a Name as long as
// their Labels differ — that is how per-endpoint histogram families are
// built without a label API.
type Desc struct {
	Name   string
	Help   string
	Kind   Kind
	Labels string
}

// Snapshot is one metric's point-in-time reading, the unit sinks
// consume.
type Snapshot struct {
	Desc
	// Value carries counter and gauge readings.
	Value float64
	// Count, Sum and Buckets carry histogram readings. Buckets are
	// cumulative, ending with the +Inf bucket (Count again).
	Count   uint64
	Sum     float64
	Buckets []BucketCount
}

type BucketCount struct {
	LE    float64 // upper bound, math.Inf(1) for the last bucket
	Count uint64  // cumulative observations <= LE
}

type metric interface {
	desc() Desc
	snapshot() Snapshot
}

// Registry is an ordered collection of metrics. Registration is
// synchronized; reading and recording are lock-free. A nil *Registry
// is valid and hands out nil instruments, so an unobserved pipeline
// pays only nil checks.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	seen    map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{seen: make(map[string]bool)} }

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := m.desc().Name + "{" + m.desc().Labels + "}"
	if r.seen[key] {
		panic(fmt.Sprintf("obs: duplicate metric %s", key))
	}
	r.seen[key] = true
	r.metrics = append(r.metrics, m)
}

// Gather snapshots every registered metric in registration order.
func (r *Registry) Gather() []Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	out := make([]Snapshot, 0, len(metrics))
	for _, m := range metrics {
		out = append(out, m.snapshot())
	}
	return out
}

// Counter registers and returns a monotonic counter. On a nil registry
// it returns nil, which is a valid no-op instrument.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterL(name, help, "")
}

// CounterL is Counter with a constant label set.
func (r *Registry) CounterL(name, help, labels string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{d: Desc{Name: name, Help: help, Kind: KindCounter, Labels: labels}}
	r.register(c)
	return c
}

// Gauge registers and returns a settable gauge; nil registry, nil
// gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{d: Desc{Name: name, Help: help, Kind: KindGauge}}
	r.register(g)
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at gather
// time — for readings that already live elsewhere (cache sizes,
// snapshot generations) and would otherwise need write-through
// mirroring.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.GaugeFuncL(name, help, "", fn)
}

// GaugeFuncL is GaugeFunc with a constant label set — one series per
// label value, all computed at gather time (lockdocd uses it for the
// per-namespace resident-bytes and generation gauges).
func (r *Registry) GaugeFuncL(name, help, labels string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&gaugeFunc{d: Desc{Name: name, Help: help, Kind: KindGauge, Labels: labels}, fn: fn})
}

// Histogram registers and returns a histogram over the given bucket
// upper bounds (ascending; the +Inf bucket is implicit). nil registry,
// nil histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramL(name, help, "", buckets)
}

// HistogramL is Histogram with a constant label set.
func (r *Registry) HistogramL(name, help, labels string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefaultLatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not ascending", name))
		}
	}
	h := &Histogram{
		d:      Desc{Name: name, Help: help, Kind: KindHistogram, Labels: labels},
		bounds: buckets,
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	r.register(h)
	return h
}

// DefaultLatencyBuckets covers 10µs..10s — wide enough for both a
// single-group mine (~100µs) and a full cold derivation (~seconds).
var DefaultLatencyBuckets = []float64{
	1e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 1e-1, 2.5e-1, 1, 2.5, 10,
}

// Counter is a monotonically increasing metric. All methods are safe on
// a nil receiver (no-op).
type Counter struct {
	d Desc
	v atomic.Uint64
}

func (c *Counter) desc() Desc { return c.d }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) snapshot() Snapshot {
	return Snapshot{Desc: c.d, Value: float64(c.v.Load())}
}

// Gauge is a metric that can go up and down. All methods are safe on a
// nil receiver.
type Gauge struct {
	d Desc
	v atomic.Int64
}

func (g *Gauge) desc() Desc { return g.d }

// Set stores an absolute value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc and Dec move the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current reading (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) snapshot() Snapshot {
	return Snapshot{Desc: g.d, Value: float64(g.v.Load())}
}

type gaugeFunc struct {
	d  Desc
	fn func() float64
}

func (g *gaugeFunc) desc() Desc { return g.d }
func (g *gaugeFunc) snapshot() Snapshot {
	return Snapshot{Desc: g.d, Value: g.fn()}
}

// Histogram counts observations into cumulative buckets and tracks
// their sum, Prometheus-style. Recording is one atomic add per bucket
// hit plus a CAS loop for the float sum; no locks, safe for concurrent
// use and on a nil receiver.
type Histogram struct {
	d      Desc
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func (h *Histogram) desc() Desc { return h.d }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search is overkill for ~12 buckets; linear scan stays in
	// one cache line.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start — the span of a
// phase timed with the monotonic clock reading time.Now carries.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

func (h *Histogram) snapshot() Snapshot {
	s := Snapshot{
		Desc:    h.d,
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sum.Load()),
		Buckets: make([]BucketCount, len(h.bounds)+1),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = BucketCount{LE: le, Count: cum}
	}
	return s
}
