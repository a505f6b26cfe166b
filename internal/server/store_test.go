package server

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lockdoc/internal/blk"
	"lockdoc/internal/obs"
	"lockdoc/internal/segstore"
	"lockdoc/internal/trace"
)

// storeServer builds a server persisting into a segment store at dir.
func storeServer(t testing.TB, dir string) (*Server, *segstore.Store) {
	t.Helper()
	st, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return New(Config{Ingest: lenientIngest(), Store: st}), st
}

// body fetches one endpoint and returns its body, failing on non-200.
func body(t testing.TB, s *Server, target string) string {
	t.Helper()
	rec := do(t, s, "GET", target, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

var storeEndpoints = []string{
	"/v1/doc?type=clock",
	"/v1/rules",
	"/v1/violations",
	"/v1/checks",
}

// TestStoreRecoveryByteIdentical pins the tentpole contract: a server
// that persisted a load plus appends into a segment store is abandoned
// ("crash"), a fresh server reopens the directory from compacted state
// alone — no trace re-import — and every query endpoint answers
// byte-identically both to the dead server and to a pure in-memory
// server fed the same acknowledged bytes.
func TestStoreRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	raw := clockTraceBytes(t)
	sh := discoverClockShape(t, raw)
	chunk := secondsOnlyChunk(t, sh, 16)
	bare := stripHeader(t, secondsOnlyChunk(t, sh, 9))

	s1, st1 := storeServer(t, dir)
	oracle := New(Config{Ingest: lenientIngest()})
	for _, step := range []struct {
		target string
		body   []byte
	}{
		{"/v1/traces", raw},
		{"/v1/traces?mode=append", chunk},
		{"/v1/traces?mode=append", bare},
	} {
		for _, s := range []*Server{s1, oracle} {
			if rec := do(t, s, "POST", step.target, bytes.NewReader(step.body)); rec.Code != http.StatusCreated {
				t.Fatalf("POST %s: status %d: %s", step.target, rec.Code, rec.Body.String())
			}
		}
	}
	want := map[string]string{}
	for _, ep := range storeEndpoints {
		want[ep] = body(t, s1, ep)
	}
	if err := st1.Close(); err != nil { // crash: only the directory survives
		t.Fatal(err)
	}

	s2, _ := storeServer(t, dir)
	snap, err := s2.OpenStore()
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if snap == nil {
		t.Fatal("OpenStore found nothing in a populated directory")
	}
	if !strings.HasPrefix(snap.Source, "store:") {
		t.Errorf("snapshot source = %q, want a store: prefix (state loaded, not replayed)", snap.Source)
	}
	for _, ep := range storeEndpoints {
		if got := body(t, s2, ep); got != want[ep] {
			t.Errorf("GET %s differs after store reopen", ep)
		}
		if got := body(t, oracle, ep); got != want[ep] {
			t.Errorf("GET %s: oracle disagrees with the store-backed server", ep)
		}
	}

	// The reopened namespace stays appendable: the first append replays
	// the trace chain into a live store, then lands exactly as it does
	// on the oracle that never restarted.
	gen := snap.Gen
	more := secondsOnlyChunk(t, sh, 11)
	for _, s := range []*Server{s2, oracle} {
		if rec := do(t, s, "POST", "/v1/traces?mode=append", bytes.NewReader(more)); rec.Code != http.StatusCreated {
			t.Fatalf("append after reopen: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	if got := s2.Snapshot().Gen; got <= gen {
		t.Errorf("generation %d after the append, want > %d", got, gen)
	}
	for _, ep := range storeEndpoints {
		if got, want := body(t, s2, ep), body(t, oracle, ep); got != want {
			t.Errorf("GET %s after an append onto the reopened store differs from the oracle", ep)
		}
	}
}

// TestCheckpointRecoveryByteIdentical pins the durability contract for a
// load followed by several appends (one a bare continuation without a
// header): after a crash the reopened store serves the same /v1/doc at
// the same generation, with every acknowledged write still on disk as
// its own trace segment. The generation matches because each ingest
// here commits exactly one segment; the reopen resumes at the segment
// count, not at an exact stored generation.
func TestCheckpointRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	raw := clockTraceBytes(t)
	sh := discoverClockShape(t, raw)

	s1, st1 := storeServer(t, dir)
	if rec := do(t, s1, "POST", "/v1/traces", bytes.NewReader(raw)); rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	for i := 1; i <= 3; i++ {
		chunk := secondsOnlyChunk(t, sh, 16*i)
		if i == 2 {
			chunk = stripHeader(t, chunk) // bare continuation blocks append too
		}
		if rec := do(t, s1, "POST", "/v1/traces?mode=append", bytes.NewReader(chunk)); rec.Code != http.StatusCreated {
			t.Fatalf("append %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	want := docBody(t, s1)
	wantGen := s1.Snapshot().Gen
	if err := st1.Close(); err != nil { // crash: only the directory survives
		t.Fatal(err)
	}

	s2, st2 := storeServer(t, dir)
	traces := 0
	for _, e := range st2.Manifest() {
		if e.Kind == segstore.KindTrace {
			traces++
		}
	}
	if traces != 4 {
		t.Fatalf("store holds %d trace segments, want 4", traces)
	}
	if _, err := s2.OpenStore(); err != nil {
		t.Fatal(err)
	}
	if got := docBody(t, s2); got != want {
		t.Errorf("recovered /v1/doc differs from pre-crash doc:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if gen := s2.Snapshot().Gen; gen != wantGen {
		t.Errorf("recovered generation %d, want %d", gen, wantGen)
	}
}

// TestStoreReplayFallback damages the compacted state on disk: reopen
// must fall back to replaying the trace segments, serve the same
// answers, and leave the server appendable (the fallback rebuilds a
// live store and recompacts).
func TestStoreReplayFallback(t *testing.T) {
	dir := t.TempDir()
	raw := clockTraceBytes(t)
	sh := discoverClockShape(t, raw)

	s1, st1 := storeServer(t, dir)
	if rec := do(t, s1, "POST", "/v1/traces", bytes.NewReader(raw)); rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	want := docBody(t, s1)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Bit-rot the state segment; its manifest CRC no longer matches.
	damaged := false
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stateName := ""
	for _, e := range st.Manifest() {
		if e.Kind == segstore.KindState {
			stateName = e.Name
		}
	}
	_ = st.Close()
	if stateName == "" {
		t.Fatalf("no state segment among %d entries", len(names))
	}
	path := filepath.Join(dir, stateName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	damaged = true
	_ = damaged

	s2, _ := storeServer(t, dir)
	snap, err := s2.OpenStore()
	if err != nil {
		t.Fatalf("OpenStore after damage: %v", err)
	}
	if snap == nil {
		t.Fatal("OpenStore ignored the intact trace segments")
	}
	if strings.HasPrefix(snap.Source, "store:") {
		t.Errorf("snapshot source = %q: damaged state was served instead of replayed", snap.Source)
	}
	if got := docBody(t, s2); got != want {
		t.Error("replayed /v1/doc differs from the pre-crash answer")
	}
	// The fallback path rebuilds an appendable live store.
	bare := stripHeader(t, secondsOnlyChunk(t, sh, 4))
	if rec := do(t, s2, "POST", "/v1/traces?mode=append", bytes.NewReader(bare)); rec.Code != http.StatusCreated {
		t.Errorf("append after replay fallback: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestStoreConcurrentServing exercises the store-backed read path under
// the race detector: one server reopens from compacted state (lazy
// group hydration from mmap'd segments), then many goroutines query the
// derivation endpoints while another ingests appends on a second
// store-backed server sharing nothing, and a third repeatedly reopens
// fresh stores of the same directory read-only.
func TestStoreConcurrentServing(t *testing.T) {
	dir := t.TempDir()
	raw := clockTraceBytes(t)
	sh := discoverClockShape(t, raw)

	seed, seedStore := storeServer(t, dir)
	if rec := do(t, seed, "POST", "/v1/traces", bytes.NewReader(raw)); rec.Code != http.StatusCreated {
		t.Fatalf("seed upload: %d", rec.Code)
	}
	if err := seedStore.Close(); err != nil {
		t.Fatal(err)
	}

	srv, _ := storeServer(t, t.TempDir())
	if rec := do(t, srv, "POST", "/v1/traces", bytes.NewReader(raw)); rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d", rec.Code)
	}

	reader, _ := storeServer(t, dir)
	if snap, err := reader.OpenStore(); err != nil || snap == nil {
		t.Fatalf("OpenStore: snap=%v err=%v", snap, err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	// Readers hammer the lazily-hydrating snapshot.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				ep := storeEndpoints[(i+j)%len(storeEndpoints)]
				if rec := do(t, reader, "GET", ep, nil); rec.Code != http.StatusOK {
					errc <- fmt.Errorf("GET %s: %d", ep, rec.Code)
					return
				}
			}
		}(i)
	}
	// A writer appends into its own store-backed server.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 6; j++ {
			bare := stripHeader(t, secondsOnlyChunk(t, sh, 3))
			if rec := do(t, srv, "POST", "/v1/traces?mode=append", bytes.NewReader(bare)); rec.Code != http.StatusCreated {
				errc <- fmt.Errorf("append %d: %d", j, rec.Code)
				return
			}
			if rec := do(t, srv, "GET", "/v1/doc?type=clock", nil); rec.Code != http.StatusOK {
				errc <- fmt.Errorf("doc after append %d: %d", j, rec.Code)
				return
			}
		}
	}()
	// Reopeners load fresh views of the seed directory concurrently.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				st, err := segstore.Open(dir, segstore.Options{})
				if err != nil {
					errc <- fmt.Errorf("reopen: %w", err)
					return
				}
				d, ok, err := st.LoadState()
				if err != nil || !ok {
					errc <- fmt.Errorf("LoadState: ok=%v err=%v", ok, err)
					_ = st.Close()
					return
				}
				for _, g := range d.Groups() {
					if err := d.Hydrate(g); err != nil {
						errc <- fmt.Errorf("hydrate: %w", err)
						break
					}
				}
				_ = st.Close()
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestStoreAppendCompactsOnlyDirtyGroups: the compaction behind each
// store-backed append copies every group the append left clean forward
// from the previous state segment — blocks reused equal groups minus
// AppendStats.Dirty — and decompresses no segment block to do it. The
// block-layer workload gives about 85 groups, a few to a few dozen of
// which each one-block append leaves untouched.
func TestStoreAppendCompactsOnlyDirtyGroups(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2, SyncInterval: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blk.RunExample(w, 1, 20); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// cuts[k] is where sync block k+1 starts.
	marker := []byte{0xFF, 'L', 'K', 'S', 'Y'}
	var cuts []int
	for i := bytes.Index(raw, marker) + 1; ; {
		j := bytes.Index(raw[i:], marker)
		if j < 0 {
			break
		}
		cuts = append(cuts, i+j)
		i += j + 1
	}
	if len(cuts) < 8 {
		t.Fatalf("trace has %d sync blocks, want at least 9", len(cuts)+1)
	}

	m := segstore.NewMetrics(obs.NewRegistry())
	st, err := segstore.Open(t.TempDir(), segstore.Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	s := New(Config{Ingest: lenientIngest(), Store: st})
	if _, err := s.LoadTrace(bytes.NewReader(raw[:cuts[2]]), "base"); err != nil {
		t.Fatal(err)
	}
	inflated := m.BlocksInflated.Value()
	for k := 2; k < 7; k++ {
		before := m.BlocksReused.Value()
		snap, stats, err := s.AppendTrace(bytes.NewReader(raw[cuts[k]:cuts[k+1]]), "block")
		if err != nil {
			t.Fatalf("append of block %d: %v", k+1, err)
		}
		if got, want := m.BlocksReused.Value()-before, uint64(len(snap.DB.Groups())-stats.Dirty); got != want {
			t.Errorf("append of block %d: %d blocks copied forward, want %d groups minus %d dirty",
				k+1, got, len(snap.DB.Groups()), stats.Dirty)
		}
	}
	if m.BlocksReused.Value() == 0 {
		t.Fatal("no append left a clean group; the test proves nothing")
	}
	if got := m.BlocksInflated.Value(); got != inflated {
		t.Errorf("the appends' compactions inflated %d segment blocks, want 0", got-inflated)
	}
}
