package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"lockdoc/internal/obs"
	"lockdoc/internal/trace"
)

// TestMetricsExpositionShape pins the /metrics rendering: one HELP/TYPE
// header per family, the legacy lockdocd_* names intact, the
// per-endpoint latency histogram family, and the pipeline instruments
// (trace/db/core) that share the server's registry.
func TestMetricsExpositionShape(t *testing.T) {
	s := newLoadedServer(t)
	do(t, s, "GET", "/v1/rules", nil) // a cache hit: the load pre-mined the default options
	body := do(t, s, "GET", "/metrics", nil).Body.String()

	for _, want := range []string{
		// Legacy serving counters, names pinned by CI greps.
		"# HELP lockdocd_requests_total HTTP requests served.\n# TYPE lockdocd_requests_total counter\n",
		"lockdocd_cache_hits_total 1\n",
		"lockdocd_cache_misses_total 0\n",
		"lockdocd_reloads_total 1\n",
		"lockdocd_appends_total 0\n",
		// Gather-time gauges reading live server state.
		"lockdocd_snapshot_generation 1\n",
		"lockdocd_cache_entries 1\n",
		"lockdocd_cache_tables 1\n",
		// The /metrics request itself is in flight while gathering.
		"lockdocd_inflight_requests 1\n",
		// Per-endpoint latency family: one TYPE header, labeled series.
		"# TYPE lockdocd_request_duration_seconds histogram\n",
		`lockdocd_request_duration_seconds_bucket{endpoint="/v1/rules",le="+Inf"} 1`,
		`lockdocd_request_duration_seconds_count{endpoint="/v1/rules"} 1`,
		`lockdocd_request_duration_seconds_count{endpoint="/healthz"} 0`,
		// Resilience signals: per-reason shed family, panic counter,
		// budget and store gauges — all present even when idle.
		"# TYPE lockdocd_shed_total counter\n",
		`lockdocd_shed_total{reason="rate"} 0`,
		`lockdocd_shed_total{reason="concurrency"} 0`,
		`lockdocd_shed_total{reason="memory"} 0`,
		`lockdocd_shed_total{reason="shutdown"} 0`,
		"lockdocd_panics_total 0\n",
		"lockdocd_ns_resident_bytes_total ",
		"lockdocd_store_degraded 0\n",
		// Pipeline instruments recorded during the load and derivation.
		"lockdoc_trace_events_decoded_total ",
		// One load seals the live store exactly once, on any host.
		"lockdoc_db_seals_total 1\n",
		"lockdoc_core_groups_mined_total ",
		// A load starts a fresh deriver, which reuses no group.
		"lockdoc_core_delta_reused_total 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if n := strings.Count(body, "# TYPE lockdocd_request_duration_seconds histogram"); n != 1 {
		t.Errorf("latency family has %d TYPE headers, want 1", n)
	}
	// The loaded trace decoded events through the server's shared
	// reader metrics; the counter must be live, not just registered.
	if strings.Contains(body, "lockdoc_trace_events_decoded_total 0\n") {
		t.Error("trace decode counter stayed 0 after a load")
	}

	// A MaxLocks query selects from the load's table: one more
	// selection, no second table.
	do(t, s, "GET", "/v1/rules?max_locks=1", nil)
	body = do(t, s, "GET", "/metrics", nil).Body.String()
	for _, want := range []string{"lockdocd_cache_entries 2\n", "lockdocd_cache_tables 1\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics after ?max_locks=1 missing %q", want)
		}
	}
}

// metricValue returns the value of the unlabeled sample name in a
// /metrics body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s sample", name)
	return 0
}

// TestEnvelopeShape pins the /v1 JSON envelope: data on success, a
// coded error object on failure, with codes derived from the status.
func TestEnvelopeShape(t *testing.T) {
	s := newLoadedServer(t)

	rec := do(t, s, "GET", "/v1/rules", nil)
	var ok struct {
		Data  json.RawMessage `json:"data"`
		Error json.RawMessage `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil {
		t.Fatalf("rules response is not envelope JSON: %v\n%s", err, rec.Body.String())
	}
	if len(ok.Data) == 0 || len(ok.Error) != 0 {
		t.Errorf("success envelope: data empty=%v, error present=%v", len(ok.Data) == 0, len(ok.Error) != 0)
	}

	for _, tt := range []struct {
		path       string
		wantStatus int
		wantCode   string
		srv        *Server
	}{
		{"/v1/rules?tac=9", http.StatusBadRequest, "bad_request", s},
		{"/v1/doc?type=zzz", http.StatusNotFound, "not_found", s},
		{"/v1/rules", http.StatusServiceUnavailable, "unavailable", New(Config{})},
	} {
		rec := do(t, tt.srv, "GET", tt.path, nil)
		if rec.Code != tt.wantStatus {
			t.Errorf("GET %s: status %d, want %d", tt.path, rec.Code, tt.wantStatus)
		}
		var fail struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &fail); err != nil {
			t.Fatalf("GET %s: error body is not envelope JSON: %v\n%s", tt.path, err, rec.Body.String())
		}
		if fail.Error.Code != tt.wantCode || fail.Error.Message == "" {
			t.Errorf("GET %s: error = %+v, want code %q and a message", tt.path, fail.Error, tt.wantCode)
		}
	}

	// Append without a base snapshot maps to the conflict code.
	rec = do(t, New(Config{}), "POST", "/v1/traces?mode=append", strings.NewReader("x"))
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), `"code": "conflict"`) {
		t.Errorf("append without base: %d %s", rec.Code, rec.Body.String())
	}
}

// TestSharedRegistry wires an external obs registry through Config and
// checks the server records into it rather than a private one.
func TestSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	extra := reg.Counter("myapp_probe_total", "external instrument sharing the registry")
	s := New(Config{Obs: reg, Ingest: trace.ReaderOptions{Lenient: true, MaxErrors: 100}})
	if s.Registry() != reg {
		t.Fatal("Registry() did not return the configured registry")
	}
	if _, err := s.LoadTrace(bytes.NewReader(clockTraceBytes(t)), "test"); err != nil {
		t.Fatal(err)
	}
	extra.Inc()
	body := do(t, s, "GET", "/metrics", nil).Body.String()
	for _, want := range []string{"myapp_probe_total 1\n", "lockdocd_requests_total 1\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q from the shared registry", want)
		}
	}
}

// TestRequestLog checks the Config.Log access line: method, URI,
// status, and response size for both success and error paths.
func TestRequestLog(t *testing.T) {
	var log bytes.Buffer
	s := New(Config{Ingest: trace.ReaderOptions{Lenient: true, MaxErrors: 100}, Log: &log})
	if _, err := s.LoadTrace(bytes.NewReader(clockTraceBytes(t)), "test"); err != nil {
		t.Fatal(err)
	}
	do(t, s, "GET", "/v1/rules", nil)
	do(t, s, "GET", "/v1/rules?tac=9", nil)
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), log.String())
	}
	if !strings.Contains(lines[0], "GET /v1/rules 200") {
		t.Errorf("log line %q missing method/path/status", lines[0])
	}
	if !strings.Contains(lines[1], "GET /v1/rules?tac=9 400") {
		t.Errorf("log line %q missing error status", lines[1])
	}
}
