// Package relation implements the paper's Sec. 8 future-work extension:
// mining *object interrelations* behind EO locking rules.
//
// LockDoc's base model classifies a held lock only as global, embedded
// in the accessed object (ES) or embedded in "some" other object (EO).
// The paper closes by proposing rules such as "acquire lock L in the
// list head before accessing a member of a list element" — i.e., saying
// *which* other object the EO lock lives in, relative to the accessed
// one.
//
// This miner answers that question by following pointers: write events
// carry the stored value, so the analysis maintains shadow memory for
// every live allocation and, for each access under an EO lock, searches
// for a pointer path from the accessed object to the lock's owner:
//
//	path []  : (no path found)
//	path [i_sb]        : the lock lives in the object the accessed
//	                     inode's i_sb points to (its super_block)
//	path [i_sb, s_bdi] : two hops — inode -> super_block ->
//	                     backing_dev_info
//
// Aggregated over the trace, a stable path with high support upgrades an
// anonymous EO rule into a navigable one: "EO(wb.list_lock in
// backing_dev_info), reachable via i_sb -> s_bdi, protects
// dirtied_when".
package relation

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"lockdoc/internal/addrindex"
	"lockdoc/internal/trace"
)

// MaxHops bounds the pointer-path search depth.
const MaxHops = 2

// Key identifies one (accessed type, lock) relation group.
type Key struct {
	AccessedType string
	LockName     string
	LockOwner    string // owning type of the EO lock
}

// Relation aggregates the discovered paths for one group.
type Relation struct {
	Key   Key
	Total uint64            // EO-lock access observations in the group
	Paths map[string]uint64 // rendered path -> count ("" = unresolved)
}

// Best returns the most frequent resolved path and its relative support.
func (r *Relation) Best() (path string, sr float64) {
	var bestN uint64
	for p, n := range r.Paths {
		if p == "" {
			continue
		}
		if n > bestN || (n == bestN && p < path) {
			path, bestN = p, n
		}
	}
	if r.Total == 0 {
		return "", 0
	}
	return path, float64(bestN) / float64(r.Total)
}

// Miner streams a trace and aggregates relations.
type Miner struct {
	relations map[Key]*Relation

	types  map[uint32]*typeInfo
	allocs map[uint64]*allocState       // by allocation ID
	live   addrindex.Index[*allocState] // live allocations by address
	locks  map[uint64]lockInfo
	held   map[uint32][]uint64 // ctx -> held lock IDs

	// SampleLimit caps the per-group path searches (the search is
	// quadratic in members for two-hop paths); 0 means unlimited.
	SampleLimit uint64
	sampled     map[Key]uint64
}

type typeInfo struct {
	name    string
	members []trace.MemberDef
	byOff   map[uint32]int
}

type allocState struct {
	id   uint64
	typ  *typeInfo
	addr uint64
	size uint32
	vals []uint64
}

type lockInfo struct {
	name      string
	ownerID   uint64
	ownerType string
}

// NewMiner returns an empty relation miner.
func NewMiner() *Miner {
	return &Miner{
		relations:   make(map[Key]*Relation),
		types:       make(map[uint32]*typeInfo),
		allocs:      make(map[uint64]*allocState),
		locks:       make(map[uint64]lockInfo),
		held:        make(map[uint32][]uint64),
		SampleLimit: 512,
		sampled:     make(map[Key]uint64),
	}
}

// Mine streams the whole trace from r.
func Mine(r *trace.Reader) (*Miner, error) {
	m := NewMiner()
	var ev trace.Event
	for {
		err := r.Read(&ev)
		if err == io.EOF {
			return m, nil
		}
		if err != nil {
			return nil, fmt.Errorf("relation: %w", err)
		}
		m.Add(&ev)
	}
}

// Add processes one event.
func (m *Miner) Add(ev *trace.Event) {
	switch ev.Kind {
	case trace.KindDefType:
		ti := &typeInfo{
			name:    ev.TypeName,
			members: append([]trace.MemberDef(nil), ev.Members...),
			byOff:   make(map[uint32]int, len(ev.Members)),
		}
		for i, md := range ti.members {
			ti.byOff[md.Offset] = i
		}
		m.types[ev.TypeID] = ti
	case trace.KindAlloc:
		ti := m.types[ev.TypeID]
		if ti == nil {
			return
		}
		a := &allocState{
			id: ev.AllocID, typ: ti, addr: ev.Addr, size: ev.Size,
			vals: make([]uint64, len(ti.members)),
		}
		m.allocs[ev.AllocID] = a
		m.live.Insert(a.addr, a.size, a)
	case trace.KindFree:
		a := m.allocs[ev.AllocID]
		if a == nil {
			return
		}
		delete(m.allocs, ev.AllocID)
		m.live.Remove(a.addr, a.size, a)
	case trace.KindDefLock:
		li := lockInfo{name: ev.LockName}
		if ev.OwnerAddr != 0 {
			if owner, ok := m.live.Lookup(ev.OwnerAddr); ok {
				li.ownerID = owner.id
				li.ownerType = owner.typ.name
			}
		}
		m.locks[ev.LockID] = li
	case trace.KindAcquire:
		m.held[ev.Ctx] = append(m.held[ev.Ctx], ev.LockID)
	case trace.KindRelease:
		hs := m.held[ev.Ctx]
		for i := len(hs) - 1; i >= 0; i-- {
			if hs[i] == ev.LockID {
				m.held[ev.Ctx] = append(hs[:i], hs[i+1:]...)
				break
			}
		}
	case trace.KindWrite, trace.KindRead:
		a, ok := m.live.Lookup(ev.Addr)
		if !ok {
			return
		}
		mi, ok := a.typ.byOff[uint32(ev.Addr-a.addr)]
		if ok && ev.Kind == trace.KindWrite {
			a.vals[mi] = ev.Value
		}
		m.observe(ev.Ctx, a)
	}
}

// observe evaluates the held EO locks of ctx against the accessed
// object's pointer graph.
func (m *Miner) observe(ctx uint32, a *allocState) {
	for _, lockID := range m.held[ctx] {
		li := m.locks[lockID]
		if li.ownerID == 0 || li.ownerID == a.id {
			continue // global or ES — no interrelation to mine
		}
		key := Key{AccessedType: a.typ.name, LockName: li.name, LockOwner: li.ownerType}
		rel := m.relations[key]
		if rel == nil {
			rel = &Relation{Key: key, Paths: make(map[string]uint64)}
			m.relations[key] = rel
		}
		rel.Total++
		if m.SampleLimit > 0 && m.sampled[key] >= m.SampleLimit {
			continue
		}
		m.sampled[key]++
		owner := m.allocs[li.ownerID]
		if owner == nil {
			rel.Paths[""]++
			continue
		}
		path := m.findPath(a, owner.addr, MaxHops)
		rel.Paths[strings.Join(path, " -> ")]++
	}
}

// findPath searches for a pointer path from a to target (an allocation
// base address), up to maxHops member dereferences.
func (m *Miner) findPath(a *allocState, target uint64, maxHops int) []string {
	if maxHops == 0 {
		return nil
	}
	// One hop: a member of a points directly at the target.
	for i, v := range a.vals {
		if v == target {
			return []string{a.typ.members[i].Name}
		}
	}
	if maxHops == 1 {
		return nil
	}
	// Multi hop: follow members that point at other live allocations.
	for i, v := range a.vals {
		if v == 0 || v == a.addr {
			continue
		}
		next, ok := m.live.Lookup(v)
		if !ok || next.addr != v || next == a {
			continue
		}
		if sub := m.findPath(next, target, maxHops-1); sub != nil {
			return append([]string{a.typ.members[i].Name}, sub...)
		}
	}
	return nil
}

// Relations returns the aggregated relations, sorted by accessed type,
// lock name and owner.
func (m *Miner) Relations() []*Relation {
	out := make([]*Relation, 0, len(m.relations))
	for _, r := range m.relations {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.AccessedType != b.AccessedType {
			return a.AccessedType < b.AccessedType
		}
		if a.LockName != b.LockName {
			return a.LockName < b.LockName
		}
		return a.LockOwner < b.LockOwner
	})
	return out
}

// Render prints the discovered interrelations; minSr filters noise.
func (m *Miner) Render(w io.Writer, minSr float64) {
	fmt.Fprintln(w, "object interrelations behind EO locking rules (Sec. 8 extension):")
	n := 0
	for _, rel := range m.Relations() {
		path, sr := rel.Best()
		if path == "" || sr < minSr {
			continue
		}
		n++
		fmt.Fprintf(w, "  accessing %-18s under EO(%s in %s): owner reachable via %s (%.0f%% of %d observations)\n",
			rel.Key.AccessedType, rel.Key.LockName, rel.Key.LockOwner, path, 100*sr, rel.Total)
	}
	if n == 0 {
		fmt.Fprintln(w, "  (none above the support threshold)")
	}
}
