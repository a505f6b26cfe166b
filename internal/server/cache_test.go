package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
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
	c := newLRU(2)

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

// publishWithoutTable republishes ns's snapshot without its mined
// table, as a reopen from compacted state publishes one, so the next
// rule query mines the table.
func publishWithoutTable(ns *namespace) *Snapshot {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	old := ns.snapshot()
	return ns.publish(old.DB, old.Source, old.Checks, nil)
}

// TestCacheReset: what a snapshot derived goes with it. A reload
// publishes a snapshot whose only selection is the default options'
// one, seeded by the load; the previous snapshot's selections answer
// nothing any more, and a key selected there selects again.
func TestCacheReset(t *testing.T) {
	s := newLoadedServer(t)
	old := s.Snapshot()
	for _, q := range []string{"tac=0.8", "max_locks=1", "naive=true"} {
		do(t, s, "GET", "/v1/rules?"+q, nil)
	}
	if n := old.selections.len(); n != 4 {
		t.Fatalf("the first snapshot holds %d selections, want 4", n)
	}
	if _, err := s.LoadTrace(bytes.NewReader(blkTraceBytes(t)), "reload"); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if n := snap.selections.len(); n != 1 || !snap.table.filled() {
		t.Fatalf("after a reload: %d selections, table resident %v; want 1 (the seeded default) and true", n, snap.table.filled())
	}
	misses := s.m.cacheMisses.Value()
	results, err := s.derive(context.Background(), snap, core.Options{AcceptThreshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if s.m.cacheMisses.Value() != misses+1 {
		t.Error("a key the previous snapshot selected hit on the new one")
	}
	if len(results) != len(snap.DB.Groups()) || results[0].Group != snap.DB.Groups()[0] {
		t.Error("the selection after a reload is not the new snapshot's")
	}
}

// TestCacheTableLookup: every option set selects from the snapshot's
// one table. The load seeds the table and the default options'
// selection, which are the same results; a selection under any other
// key is made from that table, and equals selecting from it directly.
func TestCacheTableLookup(t *testing.T) {
	s := newLoadedServer(t)
	snap := s.Snapshot()
	tab, hit := snap.table.get(func() []core.Result { t.Fatal("the load left the table empty"); return nil })
	if !hit {
		t.Fatal("the load's table was not resident")
	}
	def, err := s.derive(context.Background(), snap, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if &def[0] != &tab[0] {
		t.Error("the default options' selection is not the table itself")
	}
	mined := s.coreMetrics.GroupsMined.Value()
	for _, opt := range []core.Options{
		{AcceptThreshold: 0.8},
		{AcceptThreshold: 0.9, CutoffThreshold: 0.6},
		{AcceptThreshold: 0.9, MaxLocks: 1},
		{AcceptThreshold: 0.7, CutoffThreshold: 0.2, MaxLocks: 2, Naive: true},
	} {
		got, err := s.derive(context.Background(), snap, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tab {
			want := core.Select(tab[i], opt)
			if got[i].Group != want.Group || !reflect.DeepEqual(core.Ranked(got[i].Hypotheses), core.Ranked(want.Hypotheses)) ||
				got[i].Reason != want.Reason || (got[i].Winner == nil) != (want.Winner == nil) {
				t.Fatalf("%s: group %d differs from selecting the table", opt.Key(), i)
			}
		}
	}
	if n := s.coreMetrics.GroupsMined.Value() - mined; n != 0 {
		t.Errorf("selections mined %d groups, want 0", n)
	}
	if n := snap.selections.len(); n != 5 {
		t.Errorf("%d selections resident, want 5", n)
	}
}

// Concurrent first requests for one options key must build once, with
// every caller receiving the same results, and a build that fails must
// leave the entry empty for the next caller: the entry's mutex is the
// single-flight mechanism server.derive relies on. A hit, which every
// memoized body and cached selection is after its first request,
// allocates nothing.
func TestCacheSingleFlight(t *testing.T) {
	c := newLRU(4)
	if results, hit := c.get("hot").get(func() []core.Result { return nil }); results != nil || hit {
		t.Fatalf("a failed build: results %v, hit %v", results, hit)
	}
	var computes atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([][]core.Result, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], _ = c.get("hot").get(func() []core.Result {
				computes.Add(1)
				return mkResults(7)
			})
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
	e := c.get("hot")
	if n := testing.AllocsPerRun(100, func() { e.get(nil) }); n != 0 {
		t.Errorf("a hit allocates %v times, want 0", n)
	}
}

// TestSnapshotTable: a snapshot reopened from compacted state has no
// table until its first rule query mines it, once, whatever options
// the first queries carry. A mine that a shutdown cancels leaves the
// table empty, and the next query mines it and answers correctly.
func TestSnapshotTable(t *testing.T) {
	reopened := func(t *testing.T) (*Server, *Snapshot) {
		t.Helper()
		dir := t.TempDir()
		s, _ := storeServer(t, dir)
		if _, err := s.LoadTrace(bytes.NewReader(blkTraceBytes(t)), "blk"); err != nil {
			t.Fatal(err)
		}
		s, _ = storeServer(t, dir)
		snap, err := s.OpenStore()
		if err != nil || snap == nil || !strings.HasPrefix(snap.Source, "store:") {
			t.Fatalf("OpenStore = %v, %v; want a snapshot from compacted state", snap, err)
		}
		return s, snap
	}
	queries := map[string]core.Options{
		"tac=0.8":                    {AcceptThreshold: 0.8},
		"max_locks=1":                {AcceptThreshold: 0.9, MaxLocks: 1},
		"naive=true&hypotheses=true": {AcceptThreshold: 0.9, Naive: true},
	}
	want := func(t *testing.T, snap *Snapshot, q string) string {
		t.Helper()
		results, err := core.DeriveAll(context.Background(), snap.DB, queries[q])
		if err != nil {
			t.Fatal(err)
		}
		return string(dataBody(httptest.NewRecorder(), analysis.RulesJSON(snap.DB, results, strings.Contains(q, "hypotheses"))))
	}

	t.Run("concurrent first queries mine once", func(t *testing.T) {
		s, snap := reopened(t)
		if snap.table.filled() || snap.selections.len() != 0 {
			t.Fatal("a reopened snapshot has a table before its first query")
		}
		if tables := metricValue(t, do(t, s, "GET", "/metrics", nil).Body.String(), "lockdocd_cache_tables"); tables != 0 {
			t.Fatalf("lockdocd_cache_tables %v before the first query, want 0", tables)
		}
		var mines atomic.Int32
		s.testDeriveEnter = func(context.Context) error { mines.Add(1); return nil }
		mined := s.coreMetrics.GroupsMined.Value()
		// Three queries under each of three keys, all at once.
		type answer struct{ q, body string }
		var answers []answer
		for q := range queries {
			for range 3 {
				answers = append(answers, answer{q: q})
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range answers {
			wg.Add(1)
			go func(a *answer) {
				defer wg.Done()
				<-start
				a.body = do(t, s, "GET", "/v1/rules?"+a.q, nil).Body.String()
			}(&answers[i])
		}
		close(start)
		wg.Wait()
		if n := mines.Load(); n != 1 {
			t.Errorf("the table was mined %d times, want 1", n)
		}
		if n := s.coreMetrics.GroupsMined.Value() - mined; n != uint64(len(snap.DB.Groups())) {
			t.Errorf("%d groups mined, want %d", n, len(snap.DB.Groups()))
		}
		for _, a := range answers {
			if a.body != want(t, snap, a.q) {
				t.Errorf("?%s: body differs from a fresh derivation", a.q)
			}
		}
		if !snap.table.filled() {
			t.Error("the mined table is not resident")
		}
	})

	t.Run("cancelled mine leaves the table empty", func(t *testing.T) {
		s, snap := reopened(t)
		entered := make(chan struct{})
		var once sync.Once
		s.testDeriveEnter = func(ctx context.Context) error {
			once.Do(func() { close(entered) })
			<-ctx.Done()
			return ctx.Err()
		}
		code := make(chan int, 1)
		go func() { code <- do(t, s, "GET", "/v1/rules?tac=0.8", nil).Code }()
		<-entered
		s.BeginShutdown()
		if c := <-code; c != http.StatusServiceUnavailable {
			t.Fatalf("cancelled mine: status %d, want 503", c)
		}
		if snap.table.filled() {
			t.Fatal("a cancelled mine filled the table")
		}
		// dispatch sheds every request once draining, so the next query
		// is asked of the route's handler directly.
		s.testDeriveEnter = nil
		rec := httptest.NewRecorder()
		s.serveRead(s.defaultNS(), rec, httptest.NewRequest("GET", "/v1/rules?tac=0.8", nil), memoRules, (*Server).rulesBody)
		if rec.Code != http.StatusOK || rec.Body.String() != want(t, snap, "tac=0.8") {
			t.Fatalf("query after the cancelled mine: status %d, body equal to a fresh derivation: %v", rec.Code, rec.Body.String() == want(t, snap, "tac=0.8"))
		}
		if !snap.table.filled() {
			t.Error("the query after the cancelled mine left the table empty")
		}
	})
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
		if snap.memo[memoRules].filled() {
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
		if hits, misses := s.m.cacheHits.Value(), s.m.cacheMisses.Value(); hits != n || misses != 0 {
			t.Errorf("hits=%d misses=%d, want %d/0", hits, misses, n)
		}

		// The slot itself: while the first build runs, no other caller
		// builds. The first build waits for a second one to start, so a
		// slot that let two run would fail here; it gives up after a
		// while, which is what a correct slot makes it do.
		var m slot[byte]
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
		publishWithoutTable(ns) // force the build through a mine
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
		if snap.memo[memoRules].filled() {
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
		if p := snap.memo[memoRules].v.Load(); p == nil || string(*p) != want {
			t.Error("the build after the cancelled one did not fill the memo")
		}
	})
}
