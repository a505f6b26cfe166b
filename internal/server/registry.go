package server

import (
	"hash/fnv"
	"sort"
	"sync"
)

// nsShards is the fixed shard count of the namespace registry. Shards
// are keyed by fnv32a(name), so unrelated tenants resolve through
// different mutexes and never contend on lookup or creation. 16 is
// deliberately modest: the shard lock is only held for map operations
// (namespace mutations serialize on the per-namespace mutex), so the
// shard count bounds contention on the registry itself, not on
// ingestion.
const nsShards = 16

// DefaultNamespace is the namespace the legacy /v1/* routes alias. It
// always exists and cannot be deleted.
const DefaultNamespace = "default"

// nsRegistry is the sharded namespace map. Reads take a shard RLock;
// creation and deletion take the shard write lock. The *namespace
// values are long-lived — a request that resolved one keeps a valid
// pointer even if the namespace is deleted concurrently (it simply
// becomes unfindable and is garbage-collected when the last holder
// lets go).
type nsRegistry struct {
	shards [nsShards]nsShard
}

type nsShard struct {
	mu sync.RWMutex
	m  map[string]*namespace
}

func newNSRegistry() *nsRegistry {
	r := &nsRegistry{}
	for i := range r.shards {
		r.shards[i].m = make(map[string]*namespace)
	}
	return r
}

func (r *nsRegistry) shard(name string) *nsShard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &r.shards[h.Sum32()%nsShards]
}

// get returns the namespace or nil.
func (r *nsRegistry) get(name string) *namespace {
	sh := r.shard(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.m[name]
}

// getOrCreate returns the existing namespace or inserts the one built
// by mk. mk runs under the shard lock, so at most one creation per
// name wins; it may fail (store open error, namespace limit), in which
// case nothing is inserted. The bool reports whether mk ran.
func (r *nsRegistry) getOrCreate(name string, mk func() (*namespace, error)) (*namespace, bool, error) {
	sh := r.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ns, ok := sh.m[name]; ok {
		return ns, false, nil
	}
	ns, err := mk()
	if err != nil {
		return nil, true, err
	}
	sh.m[name] = ns
	return ns, true, nil
}

// delete removes and returns the namespace (nil if absent).
func (r *nsRegistry) delete(name string) *namespace {
	sh := r.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ns := sh.m[name]
	delete(sh.m, name)
	return ns
}

// all returns every registered namespace, sorted by name for stable
// listings.
func (r *nsRegistry) all() []*namespace {
	var out []*namespace
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, ns := range sh.m {
			out = append(out, ns)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// count reports the registered namespace total.
func (r *nsRegistry) count() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// validNsName reports whether a client-supplied namespace id is
// acceptable: 1–64 characters of [A-Za-z0-9_-]. The character set is
// deliberately path-safe — namespace ids become store subdirectory
// names, so traversal bytes must never pass.
func validNsName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
