package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"lockdoc/internal/core"
)

// slot holds a slice built at most once. Its mutex makes the build
// single flight: concurrent first callers build once while the rest
// wait. A build that fails returns nil and leaves the slot empty, so
// the next caller builds again. A filled slot is read without the
// mutex, so neither a hit nor the cache gauges wait behind a build,
// which for a table is a whole mine.
type slot[E any] struct {
	mu sync.Mutex
	v  atomic.Pointer[[]E]
}

// get returns the slot's slice, building it first if the slot is empty,
// and whether it was already there. Only a build allocates: the slice
// header it stores is declared on the build path.
func (s *slot[E]) get(build func() []E) ([]E, bool) {
	if p := s.v.Load(); p != nil {
		return *p, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.v.Load(); p != nil {
		return *p, true
	}
	v := build()
	if v != nil {
		s.v.Store(&v)
	}
	return v, false
}

// filled reports whether the slot holds its slice.
func (s *slot[E]) filled() bool { return s.v.Load() != nil }

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
// route table bounds it to four bodies: 142 KB on the kernel mix,
// 101 KB of it /rules. Requests with parameters are not memoized: only
// what clients ask bounds their number, and 64 ?tac= selections of the
// kernel mix's /rules would hold 6.5 MB.
type bodyMemo [memoRoutes]slot[byte]

// entry is one options key's selection.
type entry = slot[core.Result]

// lru is a mutex-guarded LRU of entries keyed by core.Options.Key(). An
// entry evicted while a goroutine still holds it stays valid for that
// goroutine; it is simply no longer findable and frees its memory
// afterwards.
type lru struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // of *lruItem; front = most recently used
	items map[string]*list.Element
}

type lruItem struct {
	key string
	e   *entry
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the entry for key, creating it if needed and bumping its
// LRU position.
func (c *lru) get(key string) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruItem).e
	}
	e := &entry{}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, e: e})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem).key)
	}
	return e
}

// len reports the resident entry count.
func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
