// Package db implements LockDoc's trace post-processing: it streams a
// raw event trace into a structured, in-memory relational store shaped
// like the paper's database schema (Fig. 6) and reconstructs the
// transactions, folded accesses and lock-class observations that the
// locking-rule derivation (package core) consumes.
//
// The pipeline implemented here covers Sec. 5.3 of the paper:
//
//   - resolution of raw access addresses to live allocations and struct
//     members,
//   - per-context transaction reconstruction (a transaction is a maximal
//     access sequence under a fixed set of held locks; any lock
//     acquisition or release starts a new transaction),
//   - folding of repeated accesses per (transaction, object, member) and
//     the write-over-read rule,
//   - filtering of object initialization/teardown contexts (function
//     black list), of atomic and lock members, and of explicitly
//     black-listed members,
//   - mapping of held lock instances to lock classes: a global lock, a
//     lock embedded in the accessed object itself (ES), or a lock
//     embedded in some other object (EO).
package db

import (
	"slices"
	"strconv"
	"strings"

	"lockdoc/internal/trace"
)

// LockKind distinguishes how a held lock relates to the accessed object.
type LockKind uint8

// Lock kinds, following the paper's notation.
const (
	Global LockKind = iota // statically allocated, e.g. inode_hash_lock
	ES                     // embedded in the same object as the member
	EO                     // embedded in another object
)

// LockKey is the lock-class abstraction used in locking rules: it names
// a lock by its role relative to the accessed object rather than by
// instance. All i_lock instances embedded in the accessed inode map to
// the same ES key, for example.
type LockKey struct {
	Kind      LockKind
	Class     trace.LockClass
	Name      string // member name for embedded locks, global name otherwise
	OwnerType string // owning data type for embedded locks
}

// String renders the key in the paper's notation. It sits on the
// report/docgen hot path, so embedded keys render through one exactly
// sized builder instead of fmt.
func (k LockKey) String() string {
	if k.Kind == Global {
		return k.Name
	}
	var b strings.Builder
	b.Grow(k.renderLen())
	k.appendString(&b)
	return b.String()
}

// renderLen is the exact length of String()'s result.
func (k LockKey) renderLen() int {
	switch k.Kind {
	case Global:
		return len(k.Name)
	case ES, EO:
		return len("ES(") + len(k.Name) + len(" in ") + len(k.OwnerType) + len(")")
	default:
		return len("invalid-lock-key")
	}
}

// appendString writes String()'s result to b without allocating.
func (k LockKey) appendString(b *strings.Builder) {
	switch k.Kind {
	case Global:
		b.WriteString(k.Name)
	case ES, EO:
		if k.Kind == ES {
			b.WriteString("ES(")
		} else {
			b.WriteString("EO(")
		}
		b.WriteString(k.Name)
		b.WriteString(" in ")
		b.WriteString(k.OwnerType)
		b.WriteByte(')')
	default:
		b.WriteString("invalid-lock-key")
	}
}

// KeyID is a dense handle for an interned LockKey.
type KeyID uint32

// LockSeq is an ordered lock-key sequence (acquisition order).
type LockSeq []KeyID

// Signature returns a map key identifying the sequence. This runs once
// per folded observation, so it avoids fmt.
func (s LockSeq) Signature() string {
	if len(s) == 0 {
		return ""
	}
	return string(s.appendSignature(make([]byte, 0, len(s)*4)))
}

// appendSignature appends Signature()'s bytes to b, so import can look
// a sequence up without allocating.
func (s LockSeq) appendSignature(b []byte) []byte {
	for _, id := range s {
		b = strconv.AppendUint(b, uint64(id), 10)
		b = append(b, ',')
	}
	return b
}

// DataType mirrors the trace type definition plus lookup helpers.
type DataType struct {
	ID      uint32
	Name    string
	Members []trace.MemberDef

	// def is the position of the type's record in the definition log,
	// by which a state's group directory names the definition a group
	// was made under.
	def int

	// Import lookups resolved once when the type is defined: at
	// attributes a byte offset to a member, dropped[i] reports whether
	// the member filters drop accesses to member i (atomic, lock or
	// black-listed), subbed whether observations split by allocation
	// subclass. Unset on a store decoded from a state snapshot, which
	// never imports.
	at      memberTable
	dropped []bool
	subbed  bool
}

// memberTable attributes a byte offset into a type to a member: the
// last member defined at exactly that offset, otherwise the first
// member whose bytes cover it (an interior access, e.g. into a
// sub-word), otherwise none. The attribution is constant between the
// offsets where a member starts or ends, so the table holds one piece
// per such run, in offset order: piece i covers the offsets from
// start[i] to start[i+1], and member[i] is its member or -1. Its size
// is linear in the member count, whatever the offsets.
type memberTable struct {
	start  []uint32
	member []int32
}

// newMemberTable builds the table of ms. A member whose end passes
// 2^32 covers only its own offset, as in 32-bit offset arithmetic.
func newMemberTable(ms []trace.MemberDef) memberTable {
	end := func(m trace.MemberDef) (uint64, bool) {
		e := uint64(m.Offset) + uint64(m.Size)
		return e, m.Size > 0 && e < 1<<32
	}
	cuts := []uint64{0}
	for _, m := range ms {
		cuts = append(cuts, uint64(m.Offset), uint64(m.Offset)+1)
		if e, ok := end(m); ok {
			cuts = append(cuts, e)
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	if cuts[len(cuts)-1] == 1<<32 {
		cuts = cuts[:len(cuts)-1]
	}
	piece := func(off uint64) int {
		i, _ := slices.BinarySearch(cuts, off)
		return i
	}

	// Each member in definition order claims the pieces it covers that
	// no earlier member claimed; next[k] leads to the first unclaimed
	// piece at or after k, so each piece is claimed once.
	owner := make([]int32, len(cuts))
	next := make([]int, len(cuts)+1)
	for k := range owner {
		owner[k] = -1
		next[k] = k
	}
	next[len(cuts)] = len(cuts)
	unclaimed := func(k int) int {
		for next[k] != k {
			next[k] = next[next[k]]
			k = next[k]
		}
		return k
	}
	for i, m := range ms {
		e, ok := end(m)
		if !ok {
			continue
		}
		for k, last := unclaimed(piece(uint64(m.Offset))), piece(e); k < last; k = unclaimed(k + 1) {
			owner[k] = int32(i)
			next[k] = k + 1
		}
	}
	// An exact offset goes to the last member defined there.
	for i, m := range ms {
		owner[piece(uint64(m.Offset))] = int32(i)
	}

	var t memberTable
	for k, c := range cuts {
		if k == 0 || owner[k] != owner[k-1] {
			t.start = append(t.start, uint32(c))
			t.member = append(t.member, owner[k])
		}
	}
	return t
}

// lookup returns the member index of off, or -1.
func (t *memberTable) lookup(off uint32) int {
	i, found := slices.BinarySearch(t.start, off)
	if !found {
		i-- // the piece before; start[0] is 0
	}
	return int(t.member[i])
}

// Allocation is one dynamic object instance over its lifetime.
type Allocation struct {
	ID       uint64
	Type     *DataType
	Subclass string
	Addr     uint64
	Size     uint32

	// Import state, resolved at the allocation event: row is the group
	// row its observations fold into, and pend reaches the pending
	// observations of open transactions on its allocation ID.
	row  int32
	pend *pendSet
}

// subclass returns the subclass that splits the allocation's
// observations: its own for a subclassed type, else none.
func (a *Allocation) subclass() string {
	if a.Type.subbed {
		return a.Subclass
	}
	return ""
}

// LockInfo describes a lock instance.
type LockInfo struct {
	ID        uint64
	Name      string
	Class     trace.LockClass
	OwnerID   uint64 // allocation embedding the lock; 0 for globals
	OwnerType string
}

// Func mirrors a function definition.
type Func struct {
	ID   uint32
	File string
	Line uint32
	Name string
}

// CtxInfo mirrors an execution-context definition.
type CtxInfo struct {
	ID   uint32
	Kind trace.CtxKind
	Name string
}

// AccessCtx identifies where in the code an access happened: the
// innermost function and the full interned call stack. Violations are
// reported per distinct AccessCtx (the paper's "contexts").
type AccessCtx struct {
	FuncID  uint32
	StackID uint32
}

// SeqObs aggregates all folded observations of one group that ran under
// the same held-lock sequence.
type SeqObs struct {
	Seq    LockSeq
	Count  uint64 // folded observations (transaction granularity); mining support unit
	Events uint64 // raw memory-access events folded in
	// Contexts counts raw events per distinct access context, feeding
	// the rule-violation finder.
	Contexts map[AccessCtx]uint64
}

// GroupKey identifies an observation group: one member of one data type
// (optionally refined by subclass), split by access type.
type GroupKey struct {
	TypeID   uint32
	Subclass string
	Member   int
	Write    bool
}

// ObsGroup collects every folded observation for one group.
type ObsGroup struct {
	Key      GroupKey
	Type     *DataType
	Seqs     map[string]*SeqObs
	Total    uint64 // total folded observations (sr denominator)
	EventSum uint64 // total raw events

	// Gen is the store generation (see DB.Seal) that last merged an
	// observation into this group. Delta derivation uses it only for
	// reporting; invalidation itself works by pointer identity.
	Gen uint64

	// shared marks a group as reachable from a sealed read-only view.
	// Committing into a shared group first clones it (copy-on-write), so
	// sealed views never observe later mutations and two consecutive
	// views share a group pointer exactly when its contents are
	// unchanged between them.
	shared bool
}

// clone returns a deep copy of the group (sequences and context counts
// included) that commit may mutate without affecting sealed views.
func (g *ObsGroup) clone() *ObsGroup {
	ng := &ObsGroup{
		Key: g.Key, Type: g.Type, Total: g.Total, EventSum: g.EventSum,
		Gen:  g.Gen,
		Seqs: make(map[string]*SeqObs, len(g.Seqs)),
	}
	for sig, so := range g.Seqs {
		ns := &SeqObs{
			Seq: so.Seq, Count: so.Count, Events: so.Events,
			Contexts: make(map[AccessCtx]uint64, len(so.Contexts)),
		}
		for c, n := range so.Contexts {
			ns.Contexts[c] = n
		}
		ng.Seqs[sig] = ns
	}
	return ng
}

// MemberName returns the observed member's name.
func (g *ObsGroup) MemberName() string { return g.Type.Members[g.Key.Member].Name }

// TypeLabel renders the paper's type label, e.g. "inode:ext4".
func (g *ObsGroup) TypeLabel() string {
	if g.Key.Subclass == "" {
		return g.Type.Name
	}
	return g.Type.Name + ":" + g.Key.Subclass
}

// AccessType renders "r" or "w".
func (g *ObsGroup) AccessType() string {
	if g.Key.Write {
		return "w"
	}
	return "r"
}
