package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"lockdoc/internal/analysis"
	"lockdoc/internal/blk"
	"lockdoc/internal/core"
	"lockdoc/internal/fs"
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

// blkTraceBytes produces the block-layer example trace (seed 42, 60
// rounds) in the v2 wire format.
func blkTraceBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blk.RunExample(w, 42, 60); err != nil {
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

// checkLength fails unless the response declares its body's length.
func checkLength(t testing.TB, rec *httptest.ResponseRecorder, what string) {
	t.Helper()
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("%s: Content-Length %q for a %d-byte body", what, cl, rec.Body.Len())
	}
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
			if strings.HasPrefix(tt.path, "/v1/") {
				checkLength(t, rec, tt.method+" "+tt.path)
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
	read := func() (hits, misses uint64) {
		return s.m.cacheHits.Value(), s.m.cacheMisses.Value()
	}
	do(t, s, "GET", "/v1/rules", nil)
	if hits, misses := read(); hits != 1 || misses != 0 {
		t.Fatalf("first query: hits=%d misses=%d, want 1/0 (load pre-mines the default options)", hits, misses)
	}
	do(t, s, "GET", "/v1/rules", nil)
	do(t, s, "GET", "/v1/violations", nil) // same default options -> same key
	if hits, misses := read(); hits != 3 || misses != 0 {
		t.Fatalf("repeat queries: hits=%d misses=%d, want 3/0", hits, misses)
	}
	do(t, s, "GET", "/v1/rules?tac=0.8", nil)
	if hits, misses := read(); hits != 3 || misses != 1 {
		t.Fatalf("distinct options: hits=%d misses=%d, want 3/1", hits, misses)
	}
	// The zero-value default and the explicit default share a key.
	do(t, s, "GET", "/v1/rules?tac=0.9", nil)
	if hits, _ := read(); hits != 4 {
		t.Fatalf("explicit default tac missed the cache")
	}
	// A reload replaces the epoch; its own pre-mined results cover the
	// default options, but non-default options must re-derive.
	if _, err := s.LoadTrace(bytes.NewReader(clockTraceBytes(t)), "reload"); err != nil {
		t.Fatal(err)
	}
	do(t, s, "GET", "/v1/rules", nil)
	if hits, misses := read(); hits != 5 || misses != 1 {
		t.Fatalf("post-reload default query: hits=%d misses=%d, want 5/1", hits, misses)
	}
	do(t, s, "GET", "/v1/rules?tac=0.8", nil)
	if _, misses := read(); misses != 2 {
		t.Fatalf("post-reload non-default query: misses=%d, want 2", misses)
	}
	// The /metrics rendering exposes the hit counter.
	body := do(t, s, "GET", "/metrics", nil).Body.String()
	if !strings.Contains(body, "lockdocd_cache_hits_total 5") {
		t.Errorf("metrics missing hit counter:\n%s", body)
	}
}

// TestRulesSelectFromLoadedTable pins the split between mining and
// selection: after a load, /rules queries only select from the table
// the load mined, whatever their thresholds, strategy and MaxLocks,
// and each answers exactly what a fresh derivation with its options
// renders.
func TestRulesSelectFromLoadedTable(t *testing.T) {
	queries := []struct {
		query string
		opt   core.Options
	}{
		{"tac=0.7", core.Options{AcceptThreshold: 0.7}},
		{"tac=0.8&hypotheses=true", core.Options{AcceptThreshold: 0.8}},
		{"tac=0.95", core.Options{AcceptThreshold: 0.95}},
		{"tac=1", core.Options{AcceptThreshold: 1}},
		{"tco=0.1&hypotheses=true", core.Options{AcceptThreshold: 0.9, CutoffThreshold: 0.1}},
		{"tac=0.8&tco=0.95", core.Options{AcceptThreshold: 0.8, CutoffThreshold: 0.95}},
		{"naive=true", core.Options{AcceptThreshold: 0.9, Naive: true}},
		{"naive=true&tco=0.3&hypotheses=true", core.Options{AcceptThreshold: 0.9, CutoffThreshold: 0.3, Naive: true}},
		{"max_locks=1", core.Options{AcceptThreshold: 0.9, MaxLocks: 1}},
		{"max_locks=2&tco=0.2&hypotheses=true", core.Options{AcceptThreshold: 0.9, CutoffThreshold: 0.2, MaxLocks: 2}},
		{"max_locks=1&naive=true", core.Options{AcceptThreshold: 0.9, MaxLocks: 1, Naive: true}},
	}
	for name, raw := range map[string][]byte{"clock": clockTraceBytes(t), "blk": blkTraceBytes(t)} {
		s := New(Config{Ingest: lenientIngest()})
		snap, err := s.LoadTrace(bytes.NewReader(raw), name)
		if err != nil {
			t.Fatal(err)
		}
		mined := s.coreMetrics.GroupsMined.Value()
		for _, q := range queries {
			results, err := core.DeriveAll(context.Background(), snap.DB, q.opt)
			if err != nil {
				t.Fatal(err)
			}
			var inner, want bytes.Buffer
			if err := analysis.WriteRulesJSON(&inner, snap.DB, results, strings.Contains(q.query, "hypotheses")); err != nil {
				t.Fatal(err)
			}
			enc := json.NewEncoder(&want)
			enc.SetEscapeHTML(false)
			enc.SetIndent("", "  ")
			if err := enc.Encode(map[string]any{"data": json.RawMessage(inner.Bytes())}); err != nil {
				t.Fatal(err)
			}
			if got := do(t, s, "GET", "/v1/rules?"+q.query, nil).Body.String(); got != want.String() {
				t.Errorf("%s ?%s: body differs from a fresh derivation:\n--- got ---\n%s--- want ---\n%s", name, q.query, got, want.String())
			}
		}
		if n := s.coreMetrics.GroupsMined.Value() - mined; n != 0 {
			t.Errorf("%s: queries mined %d groups, want 0 (select from the load's table)", name, n)
		}
	}
}

// TestJSONReadRoutesByteIdentical pins the bytes of every JSON read
// route over the clock and blk traces. Each body must equal a fresh
// library computation rendered by analysis.Write*JSON (the violation
// summary by its row encoding), wrapped as a json.RawMessage in the
// indented /v1 envelope.
func TestJSONReadRoutesByteIdentical(t *testing.T) {
	// encode renders v the way the analysis.Write*JSON functions do.
	encode := func(w io.Writer, v any) error {
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	type summaryRow struct {
		Type     string `json:"type"`
		Events   uint64 `json:"events"`
		Members  int    `json:"members"`
		Contexts int    `json:"contexts"`
	}
	for name, raw := range map[string][]byte{"clock": clockTraceBytes(t), "blk": blkTraceBytes(t)} {
		s := New(Config{Ingest: lenientIngest()})
		snap, err := s.LoadTrace(bytes.NewReader(raw), name)
		if err != nil {
			t.Fatal(err)
		}
		d := snap.DB
		derive := func(opt core.Options) []core.Result {
			results, err := core.DeriveAll(context.Background(), d, opt)
			if err != nil {
				t.Fatal(err)
			}
			return results
		}
		results := derive(core.Options{AcceptThreshold: core.DefaultAcceptThreshold})
		naive := derive(core.Options{AcceptThreshold: core.DefaultAcceptThreshold, Naive: true})
		ofType := func(label string) []core.Result {
			var kept []core.Result
			for _, res := range results {
				if res.Group.TypeLabel() == label {
					kept = append(kept, res)
				}
			}
			return kept
		}
		label := d.TypeLabels()[0]
		checks, err := analysis.CheckAll(d, fs.DocumentedRules())
		if err != nil {
			t.Fatal(err)
		}
		viols := analysis.FindViolations(d, results)
		summary := make([]summaryRow, 0)
		for _, sum := range analysis.SummarizeViolations(d, viols) {
			summary = append(summary, summaryRow{sum.TypeLabel, sum.Events, sum.Members, sum.Contexts})
		}

		for _, c := range []struct {
			path   string
			render func(w io.Writer) error
		}{
			{"/v1/rules", func(w io.Writer) error { return analysis.WriteRulesJSON(w, d, results, false) }},
			{"/v1/rules?type=" + label, func(w io.Writer) error { return analysis.WriteRulesJSON(w, d, ofType(label), false) }},
			{"/v1/rules?type=nosuch", func(w io.Writer) error { return analysis.WriteRulesJSON(w, d, ofType("nosuch"), false) }},
			{"/v1/rules?hypotheses=true", func(w io.Writer) error { return analysis.WriteRulesJSON(w, d, results, true) }},
			{"/v1/rules?naive=true", func(w io.Writer) error { return analysis.WriteRulesJSON(w, d, naive, false) }},
			{"/v1/checks", func(w io.Writer) error { return analysis.WriteChecksJSON(w, checks) }},
			{"/v1/violations", func(w io.Writer) error {
				return analysis.WriteViolationsJSON(w, analysis.Examples(d, viols, 20))
			}},
			{"/v1/violations?max=0", func(w io.Writer) error {
				return analysis.WriteViolationsJSON(w, analysis.Examples(d, viols, 0))
			}},
			{"/v1/violations?summary=true", func(w io.Writer) error { return encode(w, summary) }},
		} {
			var inner, want bytes.Buffer
			if err := c.render(&inner); err != nil {
				t.Fatal(err)
			}
			if err := encode(&want, map[string]any{"data": json.RawMessage(inner.Bytes())}); err != nil {
				t.Fatal(err)
			}
			rec := do(t, s, "GET", c.path, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", name, c.path, rec.Code, rec.Body.String())
			}
			if got := rec.Body.String(); got != want.String() {
				t.Errorf("%s %s: body differs from the library rendering:\n--- got ---\n%s--- want ---\n%s", name, c.path, got, want.String())
			}
			checkLength(t, rec, name+" "+c.path)
		}
	}
}

// TestWriteDataEncodeFailure: a payload that does not encode gets a
// 500 envelope with its length, not the success status and no body.
func TestWriteDataEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeData(rec, http.StatusOK, []float64{math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "internal" || !strings.Contains(env.Error.Message, "NaN") {
		t.Errorf("envelope = %+v, want an internal error naming the NaN", env.Error)
	}
	checkLength(t, rec, "encode failure")
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
