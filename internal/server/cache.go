package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"lockdoc/internal/core"
)

// ruleCache is one namespace's derivation cache. A rule query is a
// mined hypothesis table plus a winner selection, and the two depend
// on different options (internal/core/select.go), so the cache holds
// two LRUs, each bounded by Config.CacheSize:
//
//   - tables, keyed by (MaxLocks, prune floor). Each entry carries a
//     core.DeltaDeriver, so when an append publishes a new generation
//     the next query brings the table forward by re-mining only the
//     groups the append dirtied. A table mined at floor p serves every
//     selection whose floor is at least p. Every publication seeds the
//     unpruned table with MaxLocks 0 from the ingest path's own pass,
//     so queries that keep MaxLocks 0 never mine.
//   - selections, keyed by the full core.Options.Key() and valid for
//     one generation. Selecting is a scan of the table; without a
//     cut-off a selection shares the table's hypothesis slices.
//
// Only a full trace replacement (a new store epoch) makes the state
// worthless; reset drops it then.
type ruleCache struct {
	tables     *lru[tableKey]
	selections *lru[string]
}

// tableKey identifies a mined table: core.Options.MaxLocks and
// core.Options.Floor of the queries it was mined for.
type tableKey struct {
	maxLocks int
	floor    float64
}

func tableKeyOf(opt core.Options) tableKey { return tableKey{opt.MaxLocks, opt.Floor()} }

// entry is one cached result set, a table or a selection.
type entry struct {
	// mu serializes computation per key: concurrent first requests
	// compute once while the rest block on it (single flight). It also
	// guards dd.
	mu sync.Mutex
	dd *core.DeltaDeriver // tables only: per-group state across generations
	// state is the published result set. Table lookups read it
	// without mu, so it is replaced, never mutated.
	state atomic.Pointer[cached]
}

// cached is a result set and the snapshot it was computed for.
type cached struct {
	epoch, gen uint64
	results    []core.Result
}

// at reports whether c holds the results for snap.
func (c *cached) at(snap *Snapshot) bool {
	return c != nil && c.epoch == snap.Epoch && c.gen == snap.Gen
}

// publish stores results for (epoch, gen) unless the entry already
// holds a newer generation of the same epoch. adopt publishes without
// mu, so the check and the store are one compare-and-swap.
func (e *entry) publish(results []core.Result, gen, epoch uint64) {
	next := &cached{epoch: epoch, gen: gen, results: results}
	for {
		c := e.state.Load()
		if c != nil && c.epoch == epoch && c.gen > gen {
			return
		}
		if e.state.CompareAndSwap(c, next) {
			return
		}
	}
}

func newRuleCache(capacity int) *ruleCache {
	return &ruleCache{tables: newLRU[tableKey](capacity), selections: newLRU[string](capacity)}
}

// adopt publishes a result set the ingest path derived while
// publishing a snapshot: each load, append or replay derives the
// default-options rules, which are both the selection for those
// options and, having no cut-off, the unpruned table every other
// MaxLocks-0 query selects from. Only the results are adopted, never
// the namespace's StreamDeriver, which belongs to the ingest path
// under ns.mu.
func (c *ruleCache) adopt(opt core.Options, results []core.Result, gen, epoch uint64) {
	c.selections.get(opt.Key()).publish(results, gen, epoch)
	c.tables.get(tableKeyOf(opt)).publish(results, gen, epoch)
}

// table returns a resident table for snap that selections under opt
// can be made from: same MaxLocks, floor at most opt.Floor(). Of
// several it takes the highest floor, the smallest table.
func (c *ruleCache) table(opt core.Options, snap *Snapshot) []core.Result {
	want := tableKeyOf(opt)
	c.tables.mu.Lock()
	defer c.tables.mu.Unlock()
	var best *list.Element
	var bestState *cached
	for el := c.tables.ll.Front(); el != nil; el = el.Next() {
		it := el.Value.(*lruItem[tableKey])
		st := it.e.state.Load()
		if it.key.maxLocks != want.maxLocks || it.key.floor > want.floor || !st.at(snap) {
			continue
		}
		if best == nil || it.key.floor > best.Value.(*lruItem[tableKey]).key.floor {
			best, bestState = el, st
		}
	}
	if best == nil {
		return nil
	}
	c.tables.ll.MoveToFront(best)
	return bestState.results
}

// reset drops every table and selection. Called when a full load
// replaces the store wholesale: group pointers from the old store
// never reappear, so holding them would only pin the dead store in
// memory.
func (c *ruleCache) reset() {
	c.tables.reset()
	c.selections.reset()
}

// memoRoute names a JSON read route whose parameterless body a
// snapshot memoizes. The legacy aliases share their /v1/ns/{ns} route's
// slot: both resolve to the same namespace, hence the same snapshot.
type memoRoute int

const (
	memoRules memoRoute = iota
	memoChecks
	memoViolations
	memoStats
	memoRoutes // the number of memoized routes
)

// derives reports whether the route's body is built from derive's
// results.
func (r memoRoute) derives() bool { return r == memoRules || r == memoViolations }

// bodyMemo is a snapshot's memo of the complete envelope body of each
// JSON read route asked with no query parameters. Such a body depends on
// the snapshot alone: /rules and /violations select with the default
// options, /checks and /stats render fields fixed at publication. The
// memo lives and dies with its snapshot: an append, a reload and the
// reopen after an eviction each publish a new snapshot with an empty
// memo, so nothing is ever invalidated. The route table bounds it to four bodies: 142 KB
// on the kernel mix, 101 KB of it /rules. Requests with parameters are
// not memoized: only what clients ask bounds their number, and 64
// ?tac= selections of the kernel mix's /rules would hold 6.5 MB.
type bodyMemo [memoRoutes]memoSlot

// memoSlot holds one route's body. Its mutex makes the build single
// flight: concurrent first requests build once while the rest wait.
type memoSlot struct {
	mu   sync.Mutex
	body []byte
}

// get returns the slot's body, building it first if the slot is empty,
// and whether it was already there. A failed build returns nil and
// leaves the slot empty, so the next request builds again.
func (m *memoSlot) get(build func() []byte) (body []byte, hit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.body != nil {
		return m.body, true
	}
	m.body = build()
	return m.body, false
}

// lru is a mutex-guarded LRU of entries. An entry evicted while a
// goroutine still holds it stays valid for that goroutine; it is
// simply no longer findable and frees its memory afterwards.
type lru[K comparable] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // of *lruItem[K]; front = most recently used
	items map[K]*list.Element
}

type lruItem[K comparable] struct {
	key K
	e   *entry
}

func newLRU[K comparable](capacity int) *lru[K] {
	return &lru[K]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element, capacity)}
}

// get returns the entry for key, creating it if needed and bumping its
// LRU position.
func (c *lru[K]) get(key K) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruItem[K]).e
	}
	e := &entry{}
	c.items[key] = c.ll.PushFront(&lruItem[K]{key: key, e: e})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem[K]).key)
	}
	return e
}

func (c *lru[K]) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[K]*list.Element, c.cap)
}

// len reports the resident entry count.
func (c *lru[K]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
