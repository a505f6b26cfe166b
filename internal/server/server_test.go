package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lockdoc/internal/analysis"
	"lockdoc/internal/core"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

// clockTraceBytes produces the golden clock-example trace (seed 42,
// 1000 iterations) in the v2 wire format.
func clockTraceBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.RunClockExample(w, 42, 1000); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newLoadedServer builds a lenient-mode server with the clock trace
// published as generation 1.
func newLoadedServer(t testing.TB) *Server {
	t.Helper()
	s := New(Config{Ingest: trace.ReaderOptions{Lenient: true, MaxErrors: 100}})
	if _, err := s.LoadTrace(bytes.NewReader(clockTraceBytes(t)), "test"); err != nil {
		t.Fatal(err)
	}
	return s
}

// do issues one request against the in-process handler.
func do(t testing.TB, s *Server, method, target string, body io.Reader) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, body)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func TestHandlers(t *testing.T) {
	s := newLoadedServer(t)
	tests := []struct {
		name         string
		method, path string
		wantStatus   int
		wantBody     string // substring that must appear
	}{
		{"healthz", "GET", "/healthz", 200, `"status":"ok"`},
		{"rules default", "GET", "/v1/rules", 200, "sec_lock -> min_lock"},
		{"rules type filter", "GET", "/v1/rules?type=clock", 200, `"member": "minutes"`},
		{"rules unknown type", "GET", "/v1/rules?type=nosuch", 200, "[]"},
		{"rules hypotheses", "GET", "/v1/rules?hypotheses=true", 200, `"hypotheses"`},
		{"rules naive", "GET", "/v1/rules?naive=true", 200, `"rule"`},
		{"rules bad tac", "GET", "/v1/rules?tac=1.5", 400, "bad tac"},
		{"rules bad tco", "GET", "/v1/rules?tco=x", 400, "bad tco"},
		{"rules bad naive", "GET", "/v1/rules?naive=maybe", 400, "bad naive"},
		{"rules bad max_locks", "GET", "/v1/rules?max_locks=-2", 400, "bad max_locks"},
		{"checks", "GET", "/v1/checks", 200, `"verdict"`},
		{"violations", "GET", "/v1/violations", 200, "["},
		{"violations summary", "GET", "/v1/violations?summary=true", 200, `"type": "clock"`},
		{"violations bad max", "GET", "/v1/violations?max=-1", 400, "bad max"},
		{"doc missing type", "GET", "/v1/doc", 400, "missing required parameter"},
		{"doc", "GET", "/v1/doc?type=clock", 200, "clock locking rules"},
		{"doc unknown type", "GET", "/v1/doc?type=zzz", 404, "no observations"},
		{"stats", "GET", "/v1/stats", 200, `"transactions"`},
		{"metrics", "GET", "/metrics", 200, "lockdocd_cache_hits_total"},
		{"rules wrong method", "POST", "/v1/rules", 405, ""},
		{"traces wrong method", "GET", "/v1/traces", 405, ""},
		{"unknown route", "GET", "/v1/nope", 404, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rec := do(t, s, tt.method, tt.path, nil)
			if rec.Code != tt.wantStatus {
				t.Fatalf("%s %s: status %d, want %d (body: %s)",
					tt.method, tt.path, rec.Code, tt.wantStatus, rec.Body.String())
			}
			if tt.wantBody != "" && !strings.Contains(rec.Body.String(), tt.wantBody) {
				t.Errorf("%s %s: body does not contain %q:\n%s",
					tt.method, tt.path, tt.wantBody, rec.Body.String())
			}
		})
	}
}

func TestQueriesWithoutSnapshot(t *testing.T) {
	s := New(Config{})
	for _, path := range []string{"/v1/rules", "/v1/checks", "/v1/violations", "/v1/doc?type=clock", "/v1/stats"} {
		if rec := do(t, s, "GET", path, nil); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("GET %s without snapshot: status %d, want 503", path, rec.Code)
		}
	}
	if rec := do(t, s, "GET", "/healthz", nil); rec.Code != 200 {
		t.Errorf("healthz must be alive without a snapshot, got %d", rec.Code)
	}
}

func TestTraceUpload(t *testing.T) {
	s := newLoadedServer(t)
	rec := do(t, s, "POST", "/v1/traces", bytes.NewReader(clockTraceBytes(t)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Data struct {
			Generation uint64 `json:"generation"`
			Groups     int    `json:"groups"`
		} `json:"data"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Data.Generation != 2 {
		t.Errorf("upload generation = %d, want 2", resp.Data.Generation)
	}
	if resp.Data.Groups == 0 {
		t.Error("uploaded snapshot has no observation groups")
	}

	// A garbage upload is rejected and must not disturb the snapshot.
	rec = do(t, s, "POST", "/v1/traces", strings.NewReader("not a trace"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage upload: status %d, want 400", rec.Code)
	}
	if got := s.Snapshot().Gen; got != 2 {
		t.Errorf("generation after rejected upload = %d, want 2", got)
	}
	if rec := do(t, s, "GET", "/v1/rules", nil); rec.Code != 200 ||
		!strings.Contains(rec.Body.String(), "sec_lock -> min_lock") {
		t.Errorf("service degraded after rejected upload: %d %s", rec.Code, rec.Body.String())
	}
}

// TestDocGolden pins /v1/doc byte-for-byte to analysis.GenerateDoc over
// the same snapshot and options.
func TestDocGolden(t *testing.T) {
	s := newLoadedServer(t)
	rec := do(t, s, "GET", "/v1/doc?type=clock", nil)
	if rec.Code != 200 {
		t.Fatalf("doc: status %d", rec.Code)
	}
	d := s.Snapshot().DB
	results, err := core.DeriveAll(context.Background(), d, core.Options{AcceptThreshold: core.DefaultAcceptThreshold})
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.GenerateDoc(d, results, "clock")
	if got := rec.Body.String(); got != want {
		t.Errorf("/v1/doc diverges from analysis.GenerateDoc:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCacheMemoization asserts queries are served from the LRU — the
// daemon's raison d'être. The load pre-mines the default options, so
// even the FIRST default-options query is a hit; distinct options
// still miss and derive on demand.
func TestCacheMemoization(t *testing.T) {
	s := newLoadedServer(t)
	read := func() (hits, misses, derives uint64) {
		return s.m.cacheHits.Value(), s.m.cacheMisses.Value(), s.m.derives.Value()
	}
	do(t, s, "GET", "/v1/rules", nil)
	if hits, _, derives := read(); hits != 1 || derives != 0 {
		t.Fatalf("first query: hits=%d derives=%d, want 1/0 (load pre-mines the default options)", hits, derives)
	}
	do(t, s, "GET", "/v1/rules", nil)
	do(t, s, "GET", "/v1/violations", nil) // same default options -> same key
	if hits, _, derives := read(); hits != 3 || derives != 0 {
		t.Fatalf("repeat queries: hits=%d derives=%d, want 3/0", hits, derives)
	}
	do(t, s, "GET", "/v1/rules?tac=0.8", nil)
	if _, misses, derives := read(); misses != 1 || derives != 1 {
		t.Fatalf("distinct options: misses=%d derives=%d, want 1/1", misses, derives)
	}
	// The zero-value default and the explicit default share a key.
	do(t, s, "GET", "/v1/rules?tac=0.9", nil)
	if hits, _, _ := read(); hits != 4 {
		t.Fatalf("explicit default tac missed the cache")
	}
	// A reload replaces the epoch; its own pre-mined results cover the
	// default options, but non-default options must re-derive.
	if _, err := s.LoadTrace(bytes.NewReader(clockTraceBytes(t)), "reload"); err != nil {
		t.Fatal(err)
	}
	do(t, s, "GET", "/v1/rules", nil)
	if hits, _, derives := read(); hits != 5 || derives != 1 {
		t.Fatalf("post-reload default query: hits=%d derives=%d, want 5/1", hits, derives)
	}
	do(t, s, "GET", "/v1/rules?tac=0.8", nil)
	if _, misses, derives := read(); misses != 2 || derives != 2 {
		t.Fatalf("post-reload non-default query: misses=%d derives=%d, want 2/2", misses, derives)
	}
	// The /metrics rendering exposes the hit counter.
	body := do(t, s, "GET", "/metrics", nil).Body.String()
	if !strings.Contains(body, "lockdocd_cache_hits_total 5") {
		t.Errorf("metrics missing hit counter:\n%s", body)
	}
}

// TestConcurrentReloadWhileQuerying hammers every read endpoint while
// trace reloads continuously swap the snapshot. It must be clean under
// -race: handlers pin the snapshot they started with and never observe
// a half-published one.
func TestConcurrentReloadWhileQuerying(t *testing.T) {
	s := newLoadedServer(t)
	raw := clockTraceBytes(t)
	paths := []string{
		"/v1/rules", "/v1/rules?tac=0.8", "/v1/rules?naive=true",
		"/v1/violations", "/v1/violations?summary=true",
		"/v1/doc?type=clock", "/v1/checks", "/v1/stats", "/metrics", "/healthz",
	}
	const queriesPerWorker = 30
	var wg sync.WaitGroup
	errs := make(chan string, len(paths)*queriesPerWorker)
	for _, path := range paths {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < queriesPerWorker; i++ {
				req := httptest.NewRequest("GET", path, nil)
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				// 404 is legal for /v1/doc only in the no-observation
				// case, which never happens here; everything must be 200.
				if rec.Code != 200 {
					errs <- fmt.Sprintf("GET %s: %d %s", path, rec.Code, rec.Body.String())
					return
				}
			}
		}(path)
	}
	// Reload concurrently, both through the API and directly.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			rec := do(t, s, "POST", "/v1/traces", bytes.NewReader(raw))
			if rec.Code != http.StatusCreated {
				errs <- fmt.Sprintf("reload upload: %d %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := s.LoadTrace(bytes.NewReader(raw), "direct"); err != nil {
				errs <- fmt.Sprintf("direct reload: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if gen := s.Snapshot().Gen; gen != 21 {
		t.Errorf("final generation = %d, want 21 (1 load + 20 reloads)", gen)
	}
}
