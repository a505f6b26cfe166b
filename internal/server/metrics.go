package server

import (
	"net/http"
	"time"

	"lockdoc/internal/obs"
)

// serverMetrics holds lockdocd's instruments, registered on the obs
// registry the server was configured with (or a private one). The
// exposition names predate the obs layer and are pinned by CI greps;
// only the rendering moved to obs.PrometheusSink.
type serverMetrics struct {
	requests    *obs.Counter // HTTP requests served (all endpoints)
	cacheHits   *obs.Counter // rule queries answered from a snapshot's selections or body memo
	cacheMisses *obs.Counter // rule queries that had to select
	reloads     *obs.Counter // full snapshots published (loads + uploads)
	uploadBytes *obs.Counter // raw trace bytes accepted via trace uploads

	// Incremental-ingestion counters.
	appends       *obs.Counter // delta snapshots published via append mode
	appendEvents  *obs.Counter // events merged by appends
	appendNanos   *obs.Counter // wall time spent in append publication
	groupsDirtied *obs.Counter // observation groups appends touched

	// Request-level observability.
	inflight *obs.Gauge                // requests currently being served
	latency  map[string]*obs.Histogram // endpoint label -> duration

	// Robustness signals.
	panics *obs.Counter            // handler panics recovered into 500s
	shed   map[string]*obs.Counter // admission refusals by reason
}

// nsMetrics is one namespace's labelled instrument set. Sets are cached
// by name on the server (obs panics on duplicate registration), so a
// namespace deleted and re-created reuses its first incarnation's
// series — the counters simply keep counting.
type nsMetrics struct {
	requests    *obs.Counter // requests resolved to this namespace
	shed        *obs.Counter // requests shed by the namespace's own bucket
	uploadBytes *obs.Counter // raw trace bytes this namespace accepted
	evictions   *obs.Counter // times the budget evictor dropped this namespace
	reopens     *obs.Counter // lazy re-opens after eviction
}

// shedReasons are the label values of the lockdocd_shed_total family —
// one per admission check that can refuse a request.
var shedReasons = []string{"rate", "concurrency", "memory", "shutdown", "ns_rate"}

// latencyEndpoints are the label values of the per-endpoint request
// duration histogram family. They must cover every route label in
// buildRoutes(); requests matching none (404s, bad methods, injected
// test routes) land in "other".
var latencyEndpoints = []string{
	"/healthz", "/metrics", "/v1/rules", "/v1/checks", "/v1/violations",
	"/v1/doc", "/v1/stats", "/v1/traces",
	"/v1/ns", "/v1/ns/{ns}", "/v1/ns/{ns}/rules", "/v1/ns/{ns}/checks",
	"/v1/ns/{ns}/violations", "/v1/ns/{ns}/doc", "/v1/ns/{ns}/stats",
	"/v1/ns/{ns}/traces", "other",
}

// newServerMetrics registers every lockdocd_* instrument. The gauges
// read live server state at gather time, so the serving path needs no
// write-through updates for them.
func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		requests:    reg.Counter("lockdocd_requests_total", "HTTP requests served."),
		cacheHits:   reg.Counter("lockdocd_cache_hits_total", "Derivation queries answered from the snapshot cache."),
		cacheMisses: reg.Counter("lockdocd_cache_misses_total", "Derivation queries that had to select from the snapshot's table."),
		reloads:     reg.Counter("lockdocd_reloads_total", "Trace snapshots published."),
		uploadBytes: reg.Counter("lockdocd_upload_bytes_total", "Raw trace bytes accepted via /v1/traces."),

		appends:       reg.Counter("lockdocd_appends_total", "Delta snapshots published via /v1/traces append mode."),
		appendEvents:  reg.Counter("lockdocd_append_events_total", "Trace events merged by appends."),
		appendNanos:   reg.Counter("lockdocd_append_nanos_total", "Wall-clock nanoseconds spent publishing appends (consume+seal+checks)."),
		groupsDirtied: reg.Counter("lockdocd_groups_dirtied_total", "Observation groups touched by appends."),

		inflight: reg.Gauge("lockdocd_inflight_requests", "Requests currently being served."),
		latency:  make(map[string]*obs.Histogram, len(latencyEndpoints)),

		panics: reg.Counter("lockdocd_panics_total", "Handler panics recovered into 500 responses."),
		shed:   make(map[string]*obs.Counter, len(shedReasons)),
	}
	for _, reason := range shedReasons {
		m.shed[reason] = reg.CounterL("lockdocd_shed_total",
			"Requests refused by admission control, by reason.", `reason="`+reason+`"`)
	}
	reg.GaugeFunc("lockdocd_store_degraded", "1 while the most recent store write failed (a commit after retries, or a best-effort compaction), else 0.",
		func() float64 {
			if s.storeDegraded.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("lockdocd_cache_entries", "Resident rule selections (one per options key) of every namespace's current snapshot.",
		func() float64 {
			n := 0
			for _, ns := range s.reg.all() {
				if snap := ns.snapshot(); snap != nil {
					n += snap.selections.len()
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("lockdocd_cache_tables", "Current snapshots whose mined hypothesis table is resident, one per namespace at most.",
		func() float64 {
			n := 0
			for _, ns := range s.reg.all() {
				if snap := ns.snapshot(); snap != nil && snap.table.filled() {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("lockdocd_snapshot_generation", "Generation of the default namespace's published snapshot (0 = none).",
		func() float64 {
			if snap := s.Snapshot(); snap != nil {
				return float64(snap.Gen)
			}
			return 0
		})
	reg.GaugeFunc("lockdocd_snapshot_groups", "Observation groups in the default namespace's published snapshot.",
		func() float64 {
			if snap := s.Snapshot(); snap != nil {
				return float64(snap.DB.GroupCount())
			}
			return 0
		})
	reg.GaugeFunc("lockdocd_namespaces", "Registered namespaces.",
		func() float64 { return float64(s.nsCount.Load()) })
	reg.GaugeFunc("lockdocd_ns_resident_bytes_total", "Raw trace bytes resident across all namespaces plus in-flight upload reservations (the MemBudgetBytes reading).",
		func() float64 { return float64(s.resident.Load()) })
	for _, ep := range latencyEndpoints {
		m.latency[ep] = reg.HistogramL("lockdocd_request_duration_seconds",
			"Request latency by endpoint.", `endpoint="`+ep+`"`, nil)
	}
	return m
}

// nsMetricsFor returns (registering on first use) the labelled
// instrument set for one namespace, including the gather-time gauges
// that read the namespace's live state through the registry — so after
// a delete/re-create cycle they follow the current incarnation.
func (s *Server) nsMetricsFor(name string) *nsMetrics {
	s.nsmMu.Lock()
	defer s.nsmMu.Unlock()
	if nm, ok := s.nsm[name]; ok {
		return nm
	}
	l := `ns="` + name + `"`
	nm := &nsMetrics{
		requests:    s.obs.CounterL("lockdocd_ns_requests_total", "Requests served, by namespace.", l),
		shed:        s.obs.CounterL("lockdocd_ns_shed_total", "Requests shed by per-namespace rate limits, by namespace.", l),
		uploadBytes: s.obs.CounterL("lockdocd_ns_upload_bytes_total", "Raw trace bytes accepted, by namespace.", l),
		evictions:   s.obs.CounterL("lockdocd_ns_evictions_total", "Budget evictions, by namespace.", l),
		reopens:     s.obs.CounterL("lockdocd_ns_reopens_total", "Lazy re-opens after eviction, by namespace.", l),
	}
	s.obs.GaugeFuncL("lockdocd_ns_resident_bytes", "Raw trace bytes resident, by namespace.", l,
		func() float64 {
			if ns := s.reg.get(name); ns != nil {
				return float64(ns.resident.Load())
			}
			return 0
		})
	s.obs.GaugeFuncL("lockdocd_ns_generation", "Published snapshot generation, by namespace (0 = none or evicted).", l,
		func() float64 {
			if ns := s.reg.get(name); ns != nil {
				if snap := ns.snapshot(); snap != nil {
					return float64(snap.Gen)
				}
			}
			return 0
		})
	s.nsm[name] = nm
	return nm
}

// observe records one served request into the per-endpoint latency
// family. label is the route's endpoint label ("other" for requests
// that matched no route).
func (m *serverMetrics) observe(label string, start time.Time) {
	h, ok := m.latency[label]
	if !ok {
		h = m.latency["other"]
	}
	h.ObserveSince(start)
}

// shedFor returns the shed counter for reason (panicking on an unknown
// reason would defeat the admission layer; fall back to "rate"-style
// registration lazily instead — in practice every caller uses a
// shedReasons member, which is pre-registered).
func (m *serverMetrics) shedFor(reason string) *obs.Counter {
	if c, ok := m.shed[reason]; ok {
		return c
	}
	return m.shed[shedReasons[0]]
}

// statusWriter captures the response status and size for the request
// log without altering the response. started tracks whether the header
// has been sent, so the panic recoverer knows whether a 500 envelope
// can still be written.
type statusWriter struct {
	http.ResponseWriter
	code    int
	bytes   int64
	started bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.started = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.started = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// handleMetrics renders the full registry — the lockdocd_* serving
// instruments plus whatever pipeline instruments (lockdoc_trace_*,
// lockdoc_db_*, lockdoc_core_*) share the registry — in the Prometheus
// text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A write error means the connection died; nothing to salvage.
	_ = obs.PrometheusSink{}.Write(w, s.obs.Gather())
}
