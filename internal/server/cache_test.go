package server

import (
	"sync"
	"sync/atomic"
	"testing"

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
