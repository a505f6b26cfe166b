package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lockdoc/internal/faultinject"
	"lockdoc/internal/manifest"
	"lockdoc/internal/resilience"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

// lenientIngest is the ReaderOptions every robustness fixture uses.
func lenientIngest() trace.ReaderOptions {
	return trace.ReaderOptions{Lenient: true, MaxErrors: 100}
}

// fastServerRetry is a real retry policy that does not really sleep.
func fastServerRetry() resilience.Backoff {
	return resilience.Backoff{
		Attempts: 4,
		Base:     time.Millisecond,
		Sleep:    func(context.Context, time.Duration) error { return nil },
	}
}

// TestRateLimitShed pins the token-bucket admission path: requests
// beyond the burst shed with 429, the too_many_requests envelope code,
// a Retry-After header, and a reason="rate" tick — while /healthz and
// /metrics bypass the limiter entirely.
func TestRateLimitShed(t *testing.T) {
	s := New(Config{Ingest: lenientIngest(), RateLimit: 0.001, RateBurst: 2})
	if _, err := s.LoadTrace(bytes.NewReader(clockTraceBytes(t)), "test"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if rec := do(t, s, "GET", "/v1/stats", nil); rec.Code != http.StatusOK {
			t.Fatalf("in-budget request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := do(t, s, "GET", "/v1/stats", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"code": "too_many_requests"`) {
		t.Errorf("shed body missing envelope code: %s", rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("shed response missing Retry-After")
	}
	// Probes and scrapes must survive overload.
	if rec := do(t, s, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("/healthz shed during overload: %d", rec.Code)
	}
	metrics := do(t, s, "GET", "/metrics", nil)
	if metrics.Code != http.StatusOK {
		t.Fatalf("/metrics shed during overload: %d", metrics.Code)
	}
	if !strings.Contains(metrics.Body.String(), `lockdocd_shed_total{reason="rate"} 1`) {
		t.Errorf("/metrics missing rate shed count:\n%s", metrics.Body.String())
	}
}

// TestConcurrencyShed pins the in-flight cap: with one slot taken by a
// blocked derivation, the next /v1 request sheds with 503 and
// reason="concurrency"; once the slot frees, requests pass again.
func TestConcurrencyShed(t *testing.T) {
	s := New(Config{Ingest: lenientIngest(), MaxInflight: 1})
	if _, err := s.LoadTrace(bytes.NewReader(clockTraceBytes(t)), "test"); err != nil {
		t.Fatal(err)
	}
	publishWithoutTable(s.defaultNS()) // as a reopen does: force /v1/rules to mine the table
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testDeriveEnter = func(ctx context.Context) error {
		once.Do(func() { close(entered) })
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var blockedCode int
	go func() {
		defer wg.Done()
		blockedCode = do(t, s, "GET", "/v1/rules", nil).Code
	}()
	<-entered

	rec := do(t, s, "GET", "/v1/stats", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-limit request: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("concurrency shed missing Retry-After")
	}
	close(release)
	wg.Wait()
	if blockedCode != http.StatusOK {
		t.Fatalf("blocked request finished with %d, want 200", blockedCode)
	}
	if rec := do(t, s, "GET", "/v1/stats", nil); rec.Code != http.StatusOK {
		t.Fatalf("post-release request: status %d, want 200", rec.Code)
	}
	body := do(t, s, "GET", "/metrics", nil).Body.String()
	if !strings.Contains(body, `lockdocd_shed_total{reason="concurrency"} 1`) {
		t.Errorf("/metrics missing concurrency shed count:\n%s", body)
	}
}

// TestMemoryBudgetShed pins upload admission against the memory
// budget: with no namespace to evict, an upload whose declared size
// does not fit sheds with 503 and reason="memory" while read-only
// requests and an append that fits keep succeeding.
func TestMemoryBudgetShed(t *testing.T) {
	raw := clockTraceBytes(t)
	chunk := secondsOnlyChunk(t, discoverClockShape(t, raw), 64)
	s := New(Config{Ingest: lenientIngest(), MemBudgetBytes: int64(len(raw) + len(chunk))})
	rec := do(t, s, "POST", "/v1/traces", bytes.NewReader(raw))
	if rec.Code != http.StatusCreated {
		t.Fatalf("in-budget upload: status %d: %s", rec.Code, rec.Body.String())
	}
	// The loaded trace is resident; a same-size append cannot be
	// admitted on top of it.
	rec = do(t, s, "POST", "/v1/traces?mode=append", bytes.NewReader(raw))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-budget append: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("memory shed missing Retry-After")
	}
	if !strings.Contains(rec.Body.String(), "memory budget") {
		t.Errorf("memory shed body: %s", rec.Body.String())
	}
	// In-budget work still flows: queries, and an append that fits.
	if rec := do(t, s, "GET", "/v1/stats", nil); rec.Code != http.StatusOK {
		t.Errorf("read during memory pressure: status %d", rec.Code)
	}
	rec = do(t, s, "POST", "/v1/traces?mode=append", bytes.NewReader(chunk))
	if rec.Code != http.StatusCreated {
		t.Errorf("in-budget append: status %d: %s", rec.Code, rec.Body.String())
	}
	body := do(t, s, "GET", "/metrics", nil).Body.String()
	if !strings.Contains(body, `lockdocd_shed_total{reason="memory"} 1`) {
		t.Errorf("/metrics missing memory shed count:\n%s", body)
	}
	if got := metricValue(t, body, "lockdocd_ns_resident_bytes_total"); got <= 0 || got > float64(len(raw)+len(chunk)) {
		t.Errorf("lockdocd_ns_resident_bytes_total = %v, want within (0, %d]", got, len(raw)+len(chunk))
	}
}

// TestMaxBodyBytes pins the -max-body-bytes satellite: a body over the
// cap answers 413 with the payload_too_large code, for both upload
// modes, and the previous snapshot keeps serving.
func TestMaxBodyBytes(t *testing.T) {
	raw := clockTraceBytes(t)
	s := New(Config{Ingest: lenientIngest(), MaxBodyBytes: 1024})
	if _, err := s.LoadTrace(bytes.NewReader(raw), "seed"); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"/v1/traces", "/v1/traces?mode=append"} {
		rec := do(t, s, "POST", target, bytes.NewReader(raw))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s oversized: status %d, want 413: %s", target, rec.Code, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), `"code": "payload_too_large"`) {
			t.Errorf("413 body missing envelope code: %s", rec.Body.String())
		}
	}
	if rec := do(t, s, "GET", "/v1/doc?type=clock", nil); rec.Code != http.StatusOK {
		t.Errorf("snapshot lost after rejected uploads: status %d", rec.Code)
	}

	// Capped at half the trace, a lenient reader decodes a prefix that
	// holds observations. The cap still refuses it: the reader must not
	// charge the body's overflow as corruption and publish the prefix.
	s = New(Config{Ingest: lenientIngest(), MaxBodyBytes: int64(len(raw) / 2)})
	seed, err := s.LoadTrace(bytes.NewReader(raw), "seed")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"/v1/traces", "/v1/traces?mode=append"} {
		if rec := do(t, s, "POST", target, bytes.NewReader(raw)); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s over a cap at half the trace: status %d, want 413: %s", target, rec.Code, rec.Body.String())
		}
		if s.Snapshot() != seed {
			t.Fatalf("POST %s over the cap replaced the snapshot", target)
		}
	}
}

// TestPanicRecovery pins the panic middleware: a handler panic answers
// a 500 error envelope, ticks lockdocd_panics_total, and leaves the
// process serving.
func TestPanicRecovery(t *testing.T) {
	s := newLoadedServer(t)
	s.testRoutes = []route{{
		method: "GET", pattern: "/v1/boom", label: "other", mode: nsNone,
		segs: splitPath("/v1/boom"),
		handler: func(*Server, *namespace, http.ResponseWriter, *http.Request) {
			panic("injected handler panic")
		},
	}}
	rec := do(t, s, "GET", "/v1/boom", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"code": "internal"`) ||
		!strings.Contains(rec.Body.String(), "injected handler panic") {
		t.Errorf("500 body is not the error envelope: %s", rec.Body.String())
	}
	// The daemon survived.
	if rec := do(t, s, "GET", "/v1/stats", nil); rec.Code != http.StatusOK {
		t.Fatalf("server dead after panic: status %d", rec.Code)
	}
	body := do(t, s, "GET", "/metrics", nil).Body.String()
	if !strings.Contains(body, "lockdocd_panics_total 1") {
		t.Errorf("/metrics missing panic count:\n%s", body)
	}
}

// panicBody hands out at most 64 bytes per Read and panics on its
// panicAt-th Read.
type panicBody struct {
	r       io.Reader
	reads   int
	panicAt int
}

func (p *panicBody) Read(b []byte) (int, error) {
	if p.reads++; p.reads == p.panicAt {
		panic("injected body panic")
	}
	return p.r.Read(b[:min(len(b), 64)])
}

// TestUploadDecodePanic: a panic raised while the trace decoder reads
// an upload answers 500 with the original value, logs the decoder's
// stack where it panicked, and leaves the daemon serving.
func TestUploadDecodePanic(t *testing.T) {
	var log bytes.Buffer
	s := New(Config{Ingest: lenientIngest(), Log: &log})
	body := &panicBody{r: bytes.NewReader(clockTraceBytes(t)), panicAt: 5}
	rec := do(t, s, "POST", "/v1/traces", body)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking upload: status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Body.String(); !strings.Contains(got, "injected body panic") || strings.Contains(got, "goroutine") {
		t.Errorf("500 body should carry the panic value and no stack: %s", got)
	}
	if got := log.String(); !strings.Contains(got, "(*panicBody).Read") || !strings.Contains(got, "db.decodeInto") {
		t.Errorf("log lacks the decoder's stack at the panic:\n%s", got)
	}
	if rec := do(t, s, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("server dead after panic: status %d", rec.Code)
	}
}

// TestShutdownDrains pins the drain satellite: BeginShutdown cancels
// the context of an in-flight derivation (so the handler returns
// instead of running to completion), refuses new /v1 work with 503,
// and lets http.Server.Shutdown return within the drain window — no
// derivation goroutine outlives it.
func TestShutdownDrains(t *testing.T) {
	s := newLoadedServer(t)
	publishWithoutTable(s.defaultNS()) // as a reopen does: force the next /v1/rules to mine the table
	entered := make(chan struct{})
	var once sync.Once
	s.testDeriveEnter = func(ctx context.Context) error {
		once.Do(func() { close(entered) })
		// Simulate a long derivation: only context cancellation ends it.
		<-ctx.Done()
		return ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code int
		body string
	}
	// Each request gets its own client: sharing a transport would let
	// the probe's parallel dial park an unused (StateNew) connection on
	// the server, which Shutdown only reaps after a fixed 5 s — an
	// http.Transport artifact, not the drain path under test.
	blockedClient := &http.Client{Transport: &http.Transport{}}
	defer blockedClient.CloseIdleConnections()
	probeClient := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	resCh := make(chan result, 1)
	go func() {
		resp, err := blockedClient.Get(ts.URL + "/v1/rules")
		if err != nil {
			resCh <- result{code: -1, body: err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resCh <- result{code: resp.StatusCode, body: string(b)}
	}()
	<-entered

	s.BeginShutdown()
	// New work is refused immediately.
	resp, err := probeClient.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	// The in-flight derivation must abort and its response complete
	// before Shutdown can return; read it first so the blocked client's
	// connection is released rather than racing the drain below.
	res := <-resCh
	blockedClient.CloseIdleConnections()

	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := ts.Config.Shutdown(drainCtx); err != nil {
		t.Fatalf("Shutdown did not drain: %v (the blocked derivation outlived it)", err)
	}
	elapsed := time.Since(start)
	if res.code != http.StatusServiceUnavailable {
		t.Errorf("in-flight request finished %d (%s), want 503 derivation aborted", res.code, res.body)
	}
	if !strings.Contains(res.body, "derivation aborted") {
		t.Errorf("in-flight response body: %s", res.body)
	}
	if elapsed > 4*time.Second {
		t.Errorf("drain took %s; derivation cancellation did not propagate", elapsed)
	}
}

// docBody fetches the rendered /v1/doc for the clock type.
func docBody(t testing.TB, s *Server) string {
	t.Helper()
	rec := do(t, s, "GET", "/v1/doc?type=clock", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/doc: status %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// TestStoreWriteFailure pins the degraded path: when the trace-chain
// commit fails even after retries, the ingest is rejected with 503 (the
// disk failed, not the trace), the previous snapshot keeps serving, the
// degraded gauge reads 1 — and it clears once the disk recovers.
func TestStoreWriteFailure(t *testing.T) {
	ffs := faultinject.NewFaultFS(manifest.OSFS{})
	s, _ := faultStoreServer(t, t.TempDir(), ffs)
	raw := clockTraceBytes(t)
	sh := discoverClockShape(t, raw)
	mustPost(t, s, "/v1/traces", raw)
	want := servedState(t, s)

	// Hard (non-transient) write faults: retries must not mask them.
	ffs.FailN(faultinject.OpWrite, 0, 1000, false)
	chunk := secondsOnlyChunk(t, sh, 16)
	rec := do(t, s, "POST", "/v1/traces?mode=append", bytes.NewReader(chunk))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("append with dead store volume: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "store write failed") {
		t.Errorf("503 body: %s", rec.Body.String())
	}
	if got := servedState(t, s); got != want {
		t.Error("rejected append mutated the served snapshot")
	}
	body := do(t, s, "GET", "/metrics", nil).Body.String()
	if !strings.Contains(body, "lockdocd_store_degraded 1") {
		t.Errorf("/metrics missing degraded=1 after failed write:\n%s", body)
	}

	// Disk recovers; the same append goes through and degraded clears.
	ffs.Clear()
	mustPost(t, s, "/v1/traces?mode=append", chunk)
	body = do(t, s, "GET", "/metrics", nil).Body.String()
	if !strings.Contains(body, "lockdocd_store_degraded 0") {
		t.Errorf("/metrics missing degraded=0 after recovery:\n%s", body)
	}
}

// TestStoreRejectsUnstorableTrace pins the other side of the 503
// mapping: a v1 trace decodes, but the store cannot segment it, so the
// load answers 400 — the bytes are at fault, not the disk — commits
// nothing, and leaves the degraded gauge at 0.
func TestStoreRejectsUnstorableTrace(t *testing.T) {
	s, st := faultStoreServer(t, t.TempDir(), nil)
	var v1 bytes.Buffer
	w, err := trace.NewWriterOptions(&v1, trace.WriterOptions{Version: trace.FormatV1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.RunClockExample(w, 42, 200); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, "POST", "/v1/traces", &v1); rec.Code != http.StatusBadRequest {
		t.Fatalf("v1 upload into a store: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if st.HasTrace() {
		t.Error("an unstorable trace was committed")
	}
	if body := do(t, s, "GET", "/metrics", nil).Body.String(); !strings.Contains(body, "lockdocd_store_degraded 0") {
		t.Errorf("an unstorable trace marked the store degraded:\n%s", body)
	}
}

// TestStoreTransientWriteRetried pins the retry distinction: a write
// fault that clears after two attempts is absorbed by the backoff loop
// and the client never sees it.
func TestStoreTransientWriteRetried(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(manifest.OSFS{})
	s, st := faultStoreServer(t, dir, ffs)
	raw := clockTraceBytes(t)
	ffs.FailN(faultinject.OpWrite, 0, 2, true) // transient: fails twice, then succeeds
	mustPost(t, s, "/v1/traces", raw)
	body := do(t, s, "GET", "/metrics", nil).Body.String()
	if !strings.Contains(body, "lockdocd_store_degraded 0") {
		t.Errorf("transient faults left the server degraded:\n%s", body)
	}
	// And the chain on disk is recoverable.
	want := servedState(t, s)
	_ = st.Close()
	if s2, _ := reopen(t, dir, nil); servedState(t, s2) != want {
		t.Error("recovery after transient faults serves a different doc")
	}
}

// TestStoreCompactionIsBestEffort pins the commit point: once the trace
// chain holds an append, a failed compaction neither rejects it (a
// retry would ingest the bytes twice) nor loses it — the degraded gauge
// reads 1, the append publishes, and a restart replays the chain
// because the state segment is behind it.
func TestStoreCompactionIsBestEffort(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(manifest.OSFS{})
	s, st := faultStoreServer(t, dir, ffs)
	oracle := New(Config{Ingest: lenientIngest()})
	raw := clockTraceBytes(t)
	sh := discoverClockShape(t, raw)
	chunk := secondsOnlyChunk(t, sh, 16)
	for _, srv := range []*Server{s, oracle} {
		mustPost(t, srv, "/v1/traces", raw)
	}

	// Write 0 is the trace segment (the commit); every later write —
	// the state segment and the manifest swap — fails.
	ffs.Clear()
	ffs.FailN(faultinject.OpWrite, 1, 1000, false)
	for _, srv := range []*Server{s, oracle} {
		mustPost(t, srv, "/v1/traces?mode=append", chunk)
	}
	want := servedState(t, oracle)
	if servedState(t, s) != want {
		t.Error("append with a failed compaction is not served")
	}
	if body := do(t, s, "GET", "/metrics", nil).Body.String(); !strings.Contains(body, "lockdocd_store_degraded 1") {
		t.Errorf("/metrics missing degraded=1 after a failed compaction:\n%s", body)
	}

	ffs.Clear()
	_ = st.Close()
	s2, _ := reopen(t, dir, nil)
	if src := s2.Snapshot().Source; !strings.HasPrefix(src, "store-replay:") {
		t.Errorf("snapshot source = %q: a state behind the trace chain was served", src)
	}
	if servedState(t, s2) != want {
		t.Error("restart lost the append whose compaction failed")
	}
}

// TestStoreReplayReadFaultCutsNothing pins the transient side of the
// replay that the first append after a reopen runs: a read fault on a
// trace segment answers 503 and leaves every store entry in place, and
// the retried append lands on the full chain.
func TestStoreReplayReadFaultCutsNothing(t *testing.T) {
	dir := t.TempDir()
	s, st := faultStoreServer(t, dir, nil)
	oracle := New(Config{Ingest: lenientIngest()})
	raw := clockTraceBytes(t)
	chunk := secondsOnlyChunk(t, discoverClockShape(t, raw), 16)
	for _, srv := range []*Server{s, oracle} {
		mustPost(t, srv, "/v1/traces", raw)
	}
	_ = st.Close()

	ffs := faultinject.NewFaultFS(manifest.OSFS{})
	s2, st2 := reopen(t, dir, ffs)
	entries := len(st2.Manifest())
	ffs.Clear()
	ffs.FailN(faultinject.OpRead, 0, 1, true)
	if rec := do(t, s2, "POST", "/v1/traces?mode=append", bytes.NewReader(chunk)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("append under a read fault: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if got := len(st2.Manifest()); got != entries {
		t.Fatalf("a transient read fault cut the store from %d to %d entries", entries, got)
	}
	for _, srv := range []*Server{s2, oracle} {
		mustPost(t, srv, "/v1/traces?mode=append", chunk)
	}
	if servedState(t, s2) != servedState(t, oracle) {
		t.Error("retried append after a read fault differs from the oracle")
	}
}
