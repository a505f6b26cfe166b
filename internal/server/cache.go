package server

import (
	"container/list"
	"sync"

	"lockdoc/internal/core"
)

// ruleCache is a mutex-guarded LRU of per-options derivation state.
// The pre-append design keyed whole result sets by (generation,
// options) and evicted everything a reload obsoleted; entries are now
// keyed by options alone and carry a core.DeltaDeriver, so when an
// append publishes a new generation the next query per options re-uses
// the cached per-group results for every group the append left clean
// and re-mines only the dirty ones. Only a full trace replacement (a
// new store epoch) makes the state worthless — reset drops it then.
type ruleCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

// cacheEntry is the incremental derivation state for one options key.
type cacheEntry struct {
	key string

	// mu serializes derivation per options key: concurrent first
	// requests compute once while the rest block on it
	// (single-flight). The fields below are guarded by it.
	mu      sync.Mutex
	epoch   uint64 // store epoch the state was computed in
	gen     uint64 // snapshot generation results corresponds to
	results []core.Result
	dd      *core.DeltaDeriver // per-group cache spanning generations
}

func newRuleCache(capacity int) *ruleCache {
	return &ruleCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// entry returns the cache entry for the options key, creating it if
// needed and bumping its LRU position. An entry evicted while a
// goroutine still holds it stays valid for that goroutine; it is
// simply no longer findable and frees its memory afterwards.
func (c *ruleCache) entry(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry)
	}
	e := &cacheEntry{key: key}
	c.items[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
	return e
}

// adopt publishes an externally computed result set into the options
// key's entry — each load, append or replay derives the
// default-options rules as part of publishing a snapshot, so the next
// query for them is a hit instead of a re-derivation. Only the results
// are adopted, never the namespace's StreamDeriver, which belongs to
// the ingest path under ns.mu; an entry that needs a delta deriver
// builds its own. An entry that already holds state for a newer
// generation is left alone.
func (c *ruleCache) adopt(key string, results []core.Result, gen, epoch uint64) {
	e := c.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.results != nil && e.epoch == epoch && e.gen > gen {
		return
	}
	e.results, e.gen, e.epoch = results, gen, epoch
}

// reset drops every entry. Called when a full load replaces the store
// wholesale: group pointers from the old store never reappear, so
// holding them would only pin the dead store in memory.
func (c *ruleCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element, c.cap)
}

// len reports the resident entry count (for /metrics).
func (c *ruleCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
