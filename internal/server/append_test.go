package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"lockdoc/internal/analysis"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/fs"
	"lockdoc/internal/trace"
)

// clockShape holds the IDs the clock trace assigned, discovered by
// decoding it, so tests can synthesize append chunks that reference
// the already-published definitions.
type clockShape struct {
	typeID   uint32
	typeSize uint32 // full struct size, for fresh allocations
	secOff   uint32 // member offset of clock.seconds
	lockID   uint64 // sec_lock
	funcID   uint32
	ctx      uint32
	maxSeq   uint64
}

func discoverClockShape(t testing.TB, raw []byte) clockShape {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var sh clockShape
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindDefType:
			if ev.TypeName == "clock" {
				sh.typeID = ev.TypeID
				for _, m := range ev.Members {
					if m.Name == "seconds" {
						sh.secOff = m.Offset
					}
					if end := m.Offset + m.Size; end > sh.typeSize {
						sh.typeSize = end
					}
				}
			}
		case trace.KindDefLock:
			if ev.LockName == "sec_lock" {
				sh.lockID = ev.LockID
			}
		case trace.KindDefFunc:
			if sh.funcID == 0 {
				sh.funcID = ev.FuncID
			}
		case trace.KindAcquire:
			sh.ctx = ev.Ctx
		}
		if ev.Seq > sh.maxSeq {
			sh.maxSeq = ev.Seq
		}
	}
	if sh.typeID == 0 || sh.lockID == 0 || sh.typeSize == 0 {
		t.Fatalf("clock trace shape not discovered: %+v", sh)
	}
	return sh
}

// secondsOnlyChunk synthesizes a headered v2 trace of `rounds`
// critical sections that write only clock.seconds under sec_lock,
// referencing the base trace's type/lock/func definitions. The
// workload frees its clock object before the trace ends, so the chunk
// allocates a fresh one (observations merge per type member across
// allocations). Appending it dirties exactly the groups of the
// `seconds` member and no other.
func secondsOnlyChunk(t testing.TB, sh clockShape, rounds int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2, SyncInterval: 16})
	if err != nil {
		t.Fatal(err)
	}
	seq := sh.maxSeq
	emit := func(ev trace.Event) {
		seq++
		ev.Seq, ev.TS = seq, seq
		if err := w.Write(&ev); err != nil {
			t.Fatal(err)
		}
	}
	// Distinct per-rounds alloc identity so chunks of different sizes
	// never collide in the address map.
	allocID := 0x8000 + uint64(rounds)
	base := 0x800000 + uint64(rounds)*0x1000
	emit(trace.Event{Kind: trace.KindAlloc, Ctx: sh.ctx, AllocID: allocID,
		TypeID: sh.typeID, Addr: base, Size: sh.typeSize})
	for i := 0; i < rounds; i++ {
		emit(trace.Event{Kind: trace.KindAcquire, Ctx: sh.ctx, LockID: sh.lockID, FuncID: sh.funcID})
		emit(trace.Event{Kind: trace.KindWrite, Ctx: sh.ctx, Addr: base + uint64(sh.secOff), AccessSize: 8, FuncID: sh.funcID})
		emit(trace.Event{Kind: trace.KindRelease, Ctx: sh.ctx, LockID: sh.lockID, FuncID: sh.funcID})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stripHeader turns a headered v2 trace into bare continuation blocks.
func stripHeader(t testing.TB, raw []byte) []byte {
	t.Helper()
	i := bytes.Index(raw, []byte{0xFF, 'L', 'K', 'S', 'Y'})
	if i < 0 {
		t.Fatal("no sync marker in trace")
	}
	return raw[i:]
}

type appendResp struct {
	Generation  uint64 `json:"generation"`
	Events      int    `json:"events"`
	Groups      int    `json:"groups"`
	DirtyGroups int    `json:"dirty_groups"`
	Premined    int    `json:"premined"`
}

func postAppend(t testing.TB, s *Server, body []byte) appendResp {
	t.Helper()
	rec := do(t, s, "POST", "/v1/traces?mode=append", bytes.NewReader(body))
	if rec.Code != http.StatusCreated {
		t.Fatalf("append: status %d: %s", rec.Code, rec.Body.String())
	}
	checkLength(t, rec, "append")
	var resp struct {
		Data appendResp `json:"data"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Data
}

func TestAppendHandlerModes(t *testing.T) {
	t.Run("no base snapshot", func(t *testing.T) {
		s := New(Config{})
		rec := do(t, s, "POST", "/v1/traces?mode=append", bytes.NewReader(clockTraceBytes(t)))
		if rec.Code != http.StatusConflict {
			t.Fatalf("append without base: status %d, want 409: %s", rec.Code, rec.Body.String())
		}
	})
	t.Run("bad mode", func(t *testing.T) {
		s := newLoadedServer(t)
		rec := do(t, s, "POST", "/v1/traces?mode=sideways", bytes.NewReader(clockTraceBytes(t)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad mode") {
			t.Fatalf("bad mode: status %d: %s", rec.Code, rec.Body.String())
		}
	})
	t.Run("zero events rejected", func(t *testing.T) {
		s := newLoadedServer(t)
		var empty bytes.Buffer
		w, err := trace.NewWriterOptions(&empty, trace.WriterOptions{Version: trace.FormatV2})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rec := do(t, s, "POST", "/v1/traces?mode=append", bytes.NewReader(empty.Bytes()))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("empty append: status %d, want 400: %s", rec.Code, rec.Body.String())
		}
		if gen := s.Snapshot().Gen; gen != 1 {
			t.Errorf("generation after rejected append = %d, want 1", gen)
		}
	})
	t.Run("continuation and headered chunks", func(t *testing.T) {
		s := newLoadedServer(t)
		sh := discoverClockShape(t, clockTraceBytes(t))

		headered := secondsOnlyChunk(t, sh, 50)
		resp := postAppend(t, s, headered)
		if resp.Generation != 2 {
			t.Errorf("headered append generation = %d, want 2", resp.Generation)
		}
		if resp.Events != 151 { // alloc + 50 acquire/write/release rounds
			t.Errorf("headered append events = %d, want 151", resp.Events)
		}
		if resp.DirtyGroups < 1 || resp.DirtyGroups >= resp.Groups {
			t.Errorf("dirty_groups = %d of %d, want a proper subset", resp.DirtyGroups, resp.Groups)
		}

		bare := stripHeader(t, secondsOnlyChunk(t, sh, 30))
		resp = postAppend(t, s, bare)
		if resp.Generation != 3 {
			t.Errorf("bare append generation = %d, want 3", resp.Generation)
		}
		if resp.Events != 91 {
			t.Errorf("bare append events = %d, want 91", resp.Events)
		}

		if rec := do(t, s, "GET", "/v1/rules", nil); rec.Code != 200 ||
			!strings.Contains(rec.Body.String(), "sec_lock") {
			t.Errorf("rules after appends: %d %s", rec.Code, rec.Body.String())
		}
		body := do(t, s, "GET", "/metrics", nil).Body.String()
		if !strings.Contains(body, "lockdocd_appends_total 2") {
			t.Errorf("metrics missing append counter:\n%s", body)
		}
	})
}

// TestAppendRetainsRuleCache is the regression test for the wholesale
// cache flush: an append's own pass re-mines only the groups it
// dirtied, and the table it publishes answers every query. No query
// mines, whatever its options, before the append or after it, and a
// repeat query is a clean cache hit.
func TestAppendRetainsRuleCache(t *testing.T) {
	s := newLoadedServer(t)
	sh := discoverClockShape(t, clockTraceBytes(t))
	mined := s.coreMetrics.GroupsMined.Value
	const capped = "/v1/rules?max_locks=1"
	queries := []string{"/v1/rules?tac=0.8", capped}

	// Default options: the load already pre-mined them, so even the
	// first query is a pure hit and the server-side deriver never runs.
	do(t, s, "GET", "/v1/rules", nil)
	if hits, misses := s.m.cacheHits.Value(), s.m.cacheMisses.Value(); hits != 1 || misses != 0 {
		t.Fatalf("warm default query: hits=%d misses=%d, want 1/0 (pre-mined by the load)", hits, misses)
	}
	// Other thresholds and a MaxLocks select from the load's table.
	base := mined()
	for _, q := range queries {
		do(t, s, "GET", q, nil)
	}
	if n := mined() - base; n != 0 {
		t.Fatalf("?tac= and ?max_locks= queries mined %d groups, want 0 (they select from the load's table)", n)
	}

	total := len(s.Snapshot().DB.Groups())
	resp := postAppend(t, s, secondsOnlyChunk(t, sh, 40))
	if resp.DirtyGroups != 1 {
		t.Fatalf("seconds-only append dirtied %d groups, want exactly 1", resp.DirtyGroups)
	}
	if resp.Premined != total-resp.DirtyGroups {
		t.Errorf("append pre-mined %d groups, want %d (everything the append left clean)",
			resp.Premined, total-resp.DirtyGroups)
	}
	if n := mined() - base; n != uint64(resp.DirtyGroups) {
		t.Errorf("the append's pass mined %d groups, want %d (the dirty ones)", n, resp.DirtyGroups)
	}

	// The append's own derivation covers the new generation for the
	// default options: still a hit, still no server-side derive.
	hitsBefore := s.m.cacheHits.Value()
	do(t, s, "GET", "/v1/rules", nil)
	if hits := s.m.cacheHits.Value(); hits != hitsBefore+1 {
		t.Errorf("default query after append: hits %d -> %d, want a cache hit", hitsBefore, hits)
	}
	base = mined()
	for _, q := range queries {
		do(t, s, "GET", q, nil)
	}
	if n := mined() - base; n != 0 {
		t.Errorf("queries after the append mined %d groups, want 0", n)
	}

	hitsBefore = s.m.cacheHits.Value()
	do(t, s, "GET", capped, nil)
	if hits := s.m.cacheHits.Value(); hits != hitsBefore+1 {
		t.Errorf("repeat query after append: hits %d -> %d, want a cache hit", hitsBefore, hits)
	}

	// A full reload is a new epoch: its pass reuses nothing.
	base = mined()
	if _, err := s.LoadTrace(bytes.NewReader(clockTraceBytes(t)), "reload"); err != nil {
		t.Fatal(err)
	}
	if n, all := mined()-base, len(s.Snapshot().DB.Groups()); n != uint64(all) {
		t.Errorf("the reload's pass mined %d groups, want all %d", n, all)
	}
	base = mined()
	do(t, s, "GET", capped, nil)
	if n := mined() - base; n != 0 {
		t.Errorf("query after full reload mined %d groups, want 0", n)
	}
}

// TestConcurrentAppendsWhileQuerying is the append-path linearizability
// check: while one producer appends chunks in a fixed order, concurrent
// readers hammer /v1/rules. Every response body must be byte-identical
// to the batch derivation of SOME prefix of the append sequence — no
// torn snapshots, no stale-cache hybrids. Run under -race.
func TestConcurrentAppendsWhileQuerying(t *testing.T) {
	base := clockTraceBytes(t)
	sh := discoverClockShape(t, base)
	const nChunks = 6
	chunks := make([][]byte, nChunks)
	for i := range chunks {
		chunks[i] = secondsOnlyChunk(t, sh, 10*(i+1))
		sh.maxSeq += uint64(3*10*(i+1) + 1)
	}

	// Batch oracle: one store per prefix, derived from scratch and
	// rendered exactly the way the handler renders.
	cfg := fs.DefaultConfig()
	cfg.Lenient = true
	live := db.New(cfg)
	r, err := trace.NewReader(bytes.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Consume(r); err != nil {
		t.Fatal(err)
	}
	opt := core.Options{AcceptThreshold: core.DefaultAcceptThreshold}
	// renderOracle reproduces the handler's rendering exactly: the batch
	// derivation's rules JSON inside the /v1 response envelope.
	renderOracle := func(d *db.DB) string {
		results, err := core.DeriveAll(context.Background(), d, opt)
		if err != nil {
			t.Fatal(err)
		}
		var inner bytes.Buffer
		if err := analysis.WriteRulesJSON(&inner, d, results, false); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"data": json.RawMessage(inner.Bytes())}); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	legal := map[string]int{renderOracle(live.Seal()): 0}
	for i, c := range chunks {
		cr, err := trace.NewReader(bytes.NewReader(c))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := live.Consume(cr); err != nil {
			t.Fatal(err)
		}
		legal[renderOracle(live.Seal())] = i + 1
	}
	if len(legal) != nChunks+1 {
		t.Fatalf("oracle produced %d distinct bodies for %d generations; chunks are not distinguishable", len(legal), nChunks+1)
	}

	s := newLoadedServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 256)
	const readers = 4
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				rec := do(t, s, "GET", "/v1/rules", nil)
				if rec.Code != 200 {
					errs <- fmt.Sprintf("rules: %d %s", rec.Code, rec.Body.String())
					return
				}
				if _, ok := legal[rec.Body.String()]; !ok {
					errs <- fmt.Sprintf("rules body matches no generation's batch result:\n%s", rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, c := range chunks {
			rec := do(t, s, "POST", "/v1/traces?mode=append", bytes.NewReader(c))
			if rec.Code != http.StatusCreated {
				errs <- fmt.Sprintf("append: %d %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// After the dust settles the published snapshot must be the full
	// prefix — and one more read must return exactly its batch body.
	if gen := s.Snapshot().Gen; gen != uint64(nChunks+1) {
		t.Errorf("final generation = %d, want %d", gen, nChunks+1)
	}
	final := do(t, s, "GET", "/v1/rules", nil).Body.String()
	if got := legal[final]; got != nChunks {
		t.Errorf("final rules body corresponds to prefix %d, want %d", got, nChunks)
	}
}
