package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lockdoc/internal/analysis"
	"lockdoc/internal/blk"
	"lockdoc/internal/core"
)

func mkResults(n int) []core.Result { return make([]core.Result, n) }

func TestCacheEntryIdentityAndEviction(t *testing.T) {
	c := newLRU[string](2)

	a := c.get("a")
	if again := c.get("a"); again != a {
		t.Error("repeat lookup returned a different entry")
	}
	c.get("b")
	// Touch "a" so "b" is the LRU victim when "c" overflows the cache.
	c.get("a")
	c.get("c")
	if c.len() != 2 {
		t.Fatalf("cache len = %d, want cap 2", c.len())
	}
	if still := c.get("a"); still != a {
		t.Error("most recently used entry was evicted")
	}
}

func TestCacheReset(t *testing.T) {
	c := newRuleCache(8)
	snap := &Snapshot{Gen: 1, Epoch: 1}
	for _, tac := range []float64{0.7, 0.8, 0.9} {
		c.adopt(core.Options{AcceptThreshold: tac}, mkResults(1), snap.Gen, snap.Epoch)
	}
	if c.table(core.Options{}, snap) == nil {
		t.Fatal("adopted results are not served as a table")
	}
	c.reset()
	if n := c.selections.len() + c.tables.len(); n != 0 {
		t.Fatalf("after reset: %d entries, want 0", n)
	}
	if e := c.selections.get(core.Options{AcceptThreshold: 0.7}.Key()); e.state.Load() != nil {
		t.Error("reset kept stale selection state")
	}
	if c.table(core.Options{}, snap) != nil {
		t.Error("reset kept a stale table")
	}
}

// TestCacheTableLookup pins which resident table serves a selection:
// the same MaxLocks, a floor at or below the selection's, and the
// current snapshot.
func TestCacheTableLookup(t *testing.T) {
	c := newRuleCache(8)
	snap := &Snapshot{Gen: 2, Epoch: 1}
	unpruned, pruned := mkResults(1), mkResults(2)
	c.tables.get(tableKey{0, 0}).publish(unpruned, snap.Gen, snap.Epoch)
	c.tables.get(tableKey{0, 0.5}).publish(pruned, snap.Gen, snap.Epoch)
	c.tables.get(tableKey{3, 0}).publish(mkResults(3), snap.Gen-1, snap.Epoch)
	// A late publication of an older generation never replaces a newer one.
	c.tables.get(tableKey{0, 0}).publish(mkResults(9), snap.Gen-1, snap.Epoch)
	for _, tc := range []struct {
		opt  core.Options
		want int // length of the expected table; 0 = none resident
	}{
		{core.Options{AcceptThreshold: 0.8}, 1},                                    // floor 0: only the unpruned table
		{core.Options{AcceptThreshold: 0.9, CutoffThreshold: 0.1}, 1},              // floor 0.1
		{core.Options{AcceptThreshold: 0.9, CutoffThreshold: 0.6}, 2},              // floor 0.6: the smaller table
		{core.Options{AcceptThreshold: 0.9, CutoffThreshold: 0.6, Naive: true}, 2}, // strategy is not part of the table
		{core.Options{AcceptThreshold: 0.9, MaxLocks: 3}, 0},                       // resident, but an older generation
		{core.Options{AcceptThreshold: 0.9, MaxLocks: 2}, 0},
	} {
		if got := c.table(tc.opt, snap); len(got) != tc.want {
			t.Errorf("%s: table of %d results, want %d", tc.opt.Key(), len(got), tc.want)
		}
	}
}

// Concurrent first requests for one options key must run the derivation
// exactly once, with every caller receiving the same results: the
// entry's mutex is the single-flight mechanism server.derive relies on.
func TestCacheSingleFlight(t *testing.T) {
	c := newLRU[string](4)
	var computes atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([][]core.Result, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			e := c.get("hot")
			e.mu.Lock()
			if e.state.Load() == nil {
				computes.Add(1)
				e.publish(mkResults(7), 1, 1)
			}
			res := e.state.Load().results
			e.mu.Unlock()
			results[i] = res
		}(i)
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	for i, res := range results {
		if len(res) != 7 {
			t.Fatalf("caller %d got %d results, want 7", i, len(res))
		}
	}
}

// TestSnapshotBodyMemo: a snapshot memoizes the body of each JSON read
// route asked with no query parameters, each body built once, and a new
// snapshot starts with an empty memo.
func TestSnapshotBodyMemo(t *testing.T) {
	get := func(t *testing.T, s *Server, target string) string {
		t.Helper()
		rec := do(t, s, "GET", target, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	// rules renders snap's /rules body under opt as a request that no
	// cache answers would.
	rules := func(t *testing.T, snap *Snapshot, opt core.Options, hyps bool) string {
		t.Helper()
		results, err := core.DeriveAll(context.Background(), snap.DB, opt)
		if err != nil {
			t.Fatal(err)
		}
		return string(dataBody(httptest.NewRecorder(), analysis.RulesJSON(snap.DB, results, hyps)))
	}
	defaults := core.Options{AcceptThreshold: core.DefaultAcceptThreshold}
	// The blk trace checked against its own documented rules: its
	// verdicts, unlike the clock trace's, count what an append adds.
	blkServer := func(t *testing.T) *Server {
		t.Helper()
		s := New(Config{Ingest: lenientIngest(), Rules: blk.DocumentedRules()})
		if _, err := s.LoadTrace(bytes.NewReader(blkTraceBytes(t)), "blk"); err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("append", func(t *testing.T) {
		s := blkServer(t)
		targets := []string{"/v1/rules", "/v1/ns/default/rules", "/v1/checks", "/v1/ns/default/checks"}
		before := make(map[string]string)
		for _, target := range targets {
			before[target] = get(t, s, target)
		}
		// The whole trace again: every support count doubles.
		postAppend(t, s, blkTraceBytes(t))
		snap := s.Snapshot()
		newRules := rules(t, snap, defaults, false)
		newChecks := string(dataBody(httptest.NewRecorder(), analysis.ChecksJSON(snap.Checks)))
		want := map[string]string{
			"/v1/rules": newRules, "/v1/ns/default/rules": newRules,
			"/v1/checks": newChecks, "/v1/ns/default/checks": newChecks,
		}
		for _, target := range targets {
			if want[target] == before[target] {
				t.Fatalf("%s: the append left the body unchanged; the case shows nothing", target)
			}
			if got := get(t, s, target); got != want[target] {
				t.Errorf("%s after an append: got the previous generation's body: %v", target, got == before[target])
			}
		}
	})

	t.Run("parameters bypass", func(t *testing.T) {
		s := blkServer(t)
		snap := s.Snapshot()
		queries := map[string]string{
			"tac=0.6":         rules(t, snap, core.Options{AcceptThreshold: 0.6}, false),
			"type=nosuch":     string(dataBody(httptest.NewRecorder(), analysis.RulesJSON(snap.DB, []core.Result{}, false))),
			"hypotheses=true": rules(t, snap, defaults, true),
		}
		for q, want := range queries {
			if got := get(t, s, "/v1/rules?"+q); got != want {
				t.Errorf("/v1/rules?%s: body differs from a fresh rendering", q)
			}
		}
		if snap.memo[memoRules].body != nil {
			t.Fatal("a request with parameters filled the memo")
		}
		plain := get(t, s, "/v1/rules")
		if plain != rules(t, snap, defaults, false) {
			t.Fatal("/v1/rules: body differs from a fresh rendering")
		}
		for q, want := range queries {
			if want == plain {
				t.Fatalf("?%s renders the parameterless body; the case shows nothing", q)
			}
			if got := get(t, s, "/v1/rules?"+q); got != want {
				t.Errorf("/v1/rules?%s after the memo filled: got the memoized body: %v", q, got == plain)
			}
		}
	})

	t.Run("concurrent first requests build once", func(t *testing.T) {
		s := newLoadedServer(t)
		want := rules(t, s.Snapshot(), defaults, false)
		const n = 8
		start := make(chan struct{})
		bodies := make([]string, n)
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				bodies[i] = do(t, s, "GET", "/v1/rules", nil).Body.String()
			}()
		}
		close(start)
		wg.Wait()
		for i, body := range bodies {
			if body != want {
				t.Errorf("request %d: body differs from a fresh rendering", i)
			}
		}
		// The one build's derive and every memo hit count as cache hits.
		if hits, derives := s.m.cacheHits.Value(), s.m.derives.Value(); hits != n || derives != 0 {
			t.Errorf("hits=%d derives=%d, want %d/0", hits, derives, n)
		}

		// The slot itself: while the first build runs, no other caller
		// builds. The first build waits for a second one to start, so a
		// slot that let two run would fail here; it gives up after a
		// while, which is what a correct slot makes it do.
		var m memoSlot
		var builds atomic.Int32
		entered, second := make(chan struct{}), make(chan struct{})
		build := func() []byte {
			switch builds.Add(1) {
			case 1:
				close(entered)
				select {
				case <-second:
				case <-time.After(100 * time.Millisecond):
				}
			case 2:
				close(second)
			}
			return []byte("body")
		}
		got := make([][]byte, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[0], _ = m.get(build)
		}()
		<-entered
		for i := 1; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var hit bool
				if got[i], hit = m.get(build); !hit {
					t.Errorf("caller %d built the body again", i)
				}
			}()
		}
		wg.Wait()
		if b := builds.Load(); b != 1 {
			t.Errorf("%d builds, want 1", b)
		}
		for i, g := range got {
			if string(g) != "body" {
				t.Errorf("caller %d got %q", i, g)
			}
		}
	})

	t.Run("cancelled build memoizes nothing", func(t *testing.T) {
		s := newLoadedServer(t)
		ns := s.defaultNS()
		ns.cache.reset() // force the build through a derivation
		entered := make(chan struct{})
		var once sync.Once
		s.testDeriveEnter = func(ctx context.Context) error {
			once.Do(func() { close(entered) })
			<-ctx.Done()
			return ctx.Err()
		}
		code := make(chan int, 1)
		go func() { code <- do(t, s, "GET", "/v1/rules", nil).Code }()
		<-entered
		s.BeginShutdown()
		if c := <-code; c != http.StatusServiceUnavailable {
			t.Fatalf("cancelled build: status %d, want 503", c)
		}
		snap := s.Snapshot()
		if snap.memo[memoRules].body != nil {
			t.Fatal("a cancelled build left a body in the memo")
		}
		// dispatch sheds every request once draining, so the next build
		// is asked of the route's handler directly.
		s.testDeriveEnter = nil
		rec := httptest.NewRecorder()
		s.serveRead(ns, rec, httptest.NewRequest("GET", "/v1/rules", nil), memoRules, (*Server).rulesBody)
		want := rules(t, snap, defaults, false)
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("build after the cancelled one: status %d, body equal to a fresh rendering: %v", rec.Code, rec.Body.String() == want)
		}
		if string(snap.memo[memoRules].body) != want {
			t.Error("the build after the cancelled one did not fill the memo")
		}
	})
}
