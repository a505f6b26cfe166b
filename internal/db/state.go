package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"lockdoc/internal/trace"
)

// This file is the sealed-store state codec: a deterministic binary
// serialization of a sealed view that internal/segstore persists as the
// compressed blocks of one state segment:
//
//   - block 0 (AppendStateMeta): the filter configuration, the length of
//     the definition log and the sizes of the tables it rebuilds, the
//     interned lock keys, the ingest statistics and a directory of group
//     stubs in Groups() order;
//   - blocks 1..G (AppendGroupObs): the observations of group i-1;
//   - blocks G+1..G+K (AppendDefChunk): the definition log, one chunk
//     (see DefChunk) a block.
//
// DecodeState rebuilds a servable sealed store from block 0 and the
// definition chunks without touching the (much larger) observation
// payloads: DB.Hydrate pulls a stub's payload through the GroupSource
// the store registered, the first time derivation (or a group lookup)
// actually needs its sequences.
//
// The definition tables are never walked: the log holds them as the
// definitions arrived, and since a full chunk never changes, a store
// compacting one view after another re-encodes only the log's last
// chunk. Everything else is written in a fixed order (keys by KeyID,
// groups in Groups() order, sequences by signature, contexts by (func,
// stack)), so encoding a sealed view twice yields identical bytes and a
// decoded store is observationally identical to the view that was
// encoded: same KeyIDs, same signatures, same derivation results,
// byte-identical server responses.

// GroupSource materializes lazily-loaded observation groups.
// internal/segstore implements it on top of per-group segment blocks.
// A store never runs two HydrateGroup calls of its source at once
// (Hydrate holds the store's hydration lock), so a source may reuse
// one buffer across calls.
type GroupSource interface {
	// HydrateGroup fills g.Seqs for the group at state-directory index
	// idx (its position in the encoded group directory).
	HydrateGroup(idx int, g *ObsGroup) error
}

// Compactor persists a sealed view into durable storage;
// internal/segstore's Store implements it.
type Compactor interface {
	Compact(view *DB) error
}

// SealTo seals the store (see Seal) and, when c is non-nil, persists
// the view through c before returning it. A compaction failure
// discards nothing in memory — the view is still returned alongside
// the error so the caller can decide whether to serve it anyway.
func (db *DB) SealTo(c Compactor) (*DB, error) {
	view := db.Seal()
	if c == nil {
		return view, nil
	}
	if err := c.Compact(view); err != nil {
		return view, fmt.Errorf("db: compacting sealed view: %w", err)
	}
	return view, nil
}

// Hydrate materializes g's observations if g is a lazy stub from a
// decoded state snapshot. It is a no-op (and free) on fully in-memory
// stores and on already-hydrated groups, and safe for concurrent use —
// parallel derivation workers claim groups independently.
func (db *DB) Hydrate(g *ObsGroup) error {
	if db == nil || g == nil || db.src == nil {
		return nil
	}
	db.hydrateMu.Lock()
	defer db.hydrateMu.Unlock()
	if g.Seqs != nil {
		return nil
	}
	idx, ok := db.srcIdx[g]
	if !ok {
		return nil
	}
	if err := db.src.HydrateGroup(idx, g); err != nil {
		err = fmt.Errorf("db: hydrating group %s/%s.%s: %w", g.TypeLabel(), g.AccessType(), g.MemberName(), err)
		if db.hydrateErr == nil {
			db.hydrateErr = err
		}
		return err
	}
	return nil
}

// hydrateForLookup is Hydrate for the (g, bool) lookup paths that
// cannot surface an error: a failed hydration leaves the group empty,
// recorded once through HydrateErr.
func (db *DB) hydrateForLookup(g *ObsGroup) { _ = db.Hydrate(g) }

// HydrateErr returns the first materialization failure any path
// swallowed (group lookups, per-group derivation); nil when every
// hydration so far succeeded. Guarded by the hydration lock.
func (db *DB) HydrateErr() error {
	if db == nil || db.src == nil {
		return nil
	}
	db.hydrateMu.Lock()
	defer db.hydrateMu.Unlock()
	return db.hydrateErr
}

// defChunkLen is the number of records in a full chunk of the
// definition log, and so in a full chunk block of a state segment.
const defChunkLen = 256

// A DefChunk is one chunk of a store's definition log. The log holds
// every definition Add accepted, in trace order: def-type, def-lock,
// def-func, def-ctx, def-stack, alloc and free, but no event lenient
// mode dropped. Each record points to an immutable value: a *DataType,
// *LockInfo, *Func, *CtxInfo or *stackDef, an *Allocation for an
// allocation, and a freed for a free. Only the log's last chunk is ever
// partly filled. A full chunk never changes again, and neither does its
// encoding, so a pointer to it names that encoding. A sealed view
// shares the chunks and keeps its own record count: records the live
// store adds later to the shared last chunk lie past the view's count.
type DefChunk struct {
	recs [defChunkLen]any
}

// stackDef is the record of a def-stack event.
type stackDef struct {
	id     uint32
	frames []uint32
}

// freed is the record of a free event.
type freed struct{ a *Allocation }

// logDef appends rec to the definition log.
func (db *DB) logDef(rec any) {
	j := db.nDefs % defChunkLen
	if j == 0 {
		db.defs = append(db.defs, new(DefChunk))
	}
	db.defs[len(db.defs)-1].recs[j] = rec
	db.nDefs++
}

// DefChunks returns the number of chunks in the store's definition log.
func (db *DB) DefChunks() int { return chunksOf(db.nDefs) }

func chunksOf(records int) int { return (records + defChunkLen - 1) / defChunkLen }

// DefChunk returns chunk j of the store's definition log and whether
// the store sees it full. Only a full chunk's encoding is final.
func (db *DB) DefChunk(j int) (*DefChunk, bool) {
	return db.defs[j], (j+1)*defChunkLen <= db.nDefs
}

// Definition record tags.
const (
	recType byte = iota + 1
	recLock
	recFunc
	recCtx
	recStack
	recAlloc
	recFree
)

// AppendDefChunk appends the encoding of chunk j of the store's
// definition log to b: the records the store sees, in log order.
func (db *DB) AppendDefChunk(b []byte, j int) []byte {
	for _, rec := range db.defs[j].recs[:min(defChunkLen, db.nDefs-j*defChunkLen)] {
		switch r := rec.(type) {
		case *DataType:
			b = append(b, recType)
			b = binary.AppendUvarint(b, uint64(r.ID))
			b = appendStr(b, r.Name)
			b = binary.AppendUvarint(b, uint64(len(r.Members)))
			for _, m := range r.Members {
				b = appendStr(b, m.Name)
				b = binary.AppendUvarint(b, uint64(m.Offset))
				b = binary.AppendUvarint(b, uint64(m.Size))
				b = appendBool(b, m.Atomic)
				b = appendBool(b, m.IsLock)
			}
		case *LockInfo:
			b = append(b, recLock)
			b = binary.AppendUvarint(b, r.ID)
			b = appendStr(b, r.Name)
			b = append(b, byte(r.Class))
			b = binary.AppendUvarint(b, r.OwnerID)
			b = appendStr(b, r.OwnerType)
		case *Func:
			b = append(b, recFunc)
			b = binary.AppendUvarint(b, uint64(r.ID))
			b = appendStr(b, r.File)
			b = binary.AppendUvarint(b, uint64(r.Line))
			b = appendStr(b, r.Name)
		case *CtxInfo:
			b = append(b, recCtx)
			b = binary.AppendUvarint(b, uint64(r.ID))
			b = append(b, byte(r.Kind))
			b = appendStr(b, r.Name)
		case *stackDef:
			b = append(b, recStack)
			b = binary.AppendUvarint(b, uint64(r.id))
			b = binary.AppendUvarint(b, uint64(len(r.frames)))
			for _, f := range r.frames {
				b = binary.AppendUvarint(b, uint64(f))
			}
		case *Allocation:
			b = append(b, recAlloc)
			b = binary.AppendUvarint(b, r.ID)
			b = binary.AppendUvarint(b, uint64(r.Type.ID))
			b = appendStr(b, r.Subclass)
			b = binary.AppendUvarint(b, r.Addr)
			b = binary.AppendUvarint(b, uint64(r.Size))
		case freed:
			b = append(b, recFree)
			b = binary.AppendUvarint(b, r.a.ID)
		}
	}
	return b
}

// applyDefChunk decodes n records of an encoded chunk and applies them
// in order, as Add did, logging each again: the last definition of an
// ID wins, an allocation uses the type its ID names at that point of
// the log, and a free records the allocation its ID names then.
func (db *DB) applyDefChunk(data []byte, n int) error {
	d := &stateDec{b: data}
	for i := 0; i < n && d.err == nil; i++ {
		switch tag := d.byte("record tag"); tag {
		case recType:
			t := &DataType{ID: d.u32("type id"), Name: d.str("type name"), def: db.nDefs}
			t.Members = make([]trace.MemberDef, d.count("member count"))
			for j := range t.Members {
				m := &t.Members[j]
				m.Name = d.str("member name")
				m.Offset = d.u32("member offset")
				m.Size = d.u32("member size")
				m.Atomic = d.bool("member atomic")
				m.IsLock = d.bool("member islock")
			}
			db.Types[t.ID] = t
			db.logDef(t)
		case recLock:
			l := &LockInfo{ID: d.u64("lock id"), Name: d.str("lock name")}
			l.Class = trace.LockClass(d.byte("lock class"))
			l.OwnerID = d.u64("lock owner id")
			l.OwnerType = d.str("lock owner type")
			db.Locks[l.ID] = l
			db.logDef(l)
		case recFunc:
			f := &Func{ID: d.u32("func id"), File: d.str("func file")}
			f.Line = d.u32("func line")
			f.Name = d.str("func name")
			db.Funcs[f.ID] = f
			db.logDef(f)
		case recCtx:
			c := &CtxInfo{ID: d.u32("ctx id")}
			c.Kind = trace.CtxKind(d.byte("ctx kind"))
			c.Name = d.str("ctx name")
			db.Ctxs[c.ID] = c
			db.logDef(c)
		case recStack:
			s := &stackDef{id: d.u32("stack id")}
			s.frames = make([]uint32, d.count("stack depth"))
			for j := range s.frames {
				s.frames[j] = d.u32("stack frame")
			}
			db.Stacks[s.id] = s.frames
			db.logDef(s)
		case recAlloc:
			a := &Allocation{ID: d.u64("alloc id")}
			typeID := d.u32("alloc type")
			a.Subclass = d.str("alloc subclass")
			a.Addr = d.u64("alloc addr")
			a.Size = d.u32("alloc size")
			if a.Type = db.Types[typeID]; d.err == nil && a.Type == nil {
				return fmt.Errorf("%w: allocation %d references undefined type %d", ErrBadState, a.ID, typeID)
			}
			db.Allocs[a.ID] = a
			db.logDef(a)
		case recFree:
			id := d.u64("freed alloc id")
			a := db.Allocs[id]
			if d.err == nil && a == nil {
				return fmt.Errorf("%w: free of undefined allocation %d", ErrBadState, id)
			}
			db.logDef(freed{a})
		default:
			d.fail("record tag", fmt.Errorf("unknown tag %d", tag))
		}
	}
	return d.end()
}

// State codec wire format.
const stateVersion = 2

var stateMagic = [4]byte{'L', 'K', 'S', 'T'}

// ErrBadState is returned (wrapped) when a state snapshot fails to
// decode.
var ErrBadState = errors.New("db: corrupt state snapshot")

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// stateDec reads an encoded block. The first failure sticks: later
// reads return zero values, and err reports what failed.
type stateDec struct {
	b   []byte
	err error
}

func (d *stateDec) fail(what string, err error) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: reading %s: %v", ErrBadState, what, err)
	}
}

func (d *stateDec) u64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(what, errors.New("truncated or overlong varint"))
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *stateDec) u32(what string) uint32 {
	v := d.u64(what)
	if d.err == nil && v > 1<<32-1 {
		d.fail(what, fmt.Errorf("value %d exceeds uint32", v))
		return 0
	}
	return uint32(v)
}

// count reads the length of a list or string. Every item takes at least
// one byte, so a count past the bytes left is corrupt.
func (d *stateDec) count(what string) int {
	v := d.u64(what)
	if d.err == nil && v > uint64(len(d.b)) {
		d.fail(what, fmt.Errorf("count %d exceeds the %d bytes left", v, len(d.b)))
		return 0
	}
	return int(v)
}

func (d *stateDec) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail(what, errors.New("unexpected end of block"))
		return 0
	}
	b := d.b[0]
	d.b = d.b[1:]
	return b
}

func (d *stateDec) bool(what string) bool {
	switch d.byte(what) {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(what, errors.New("bad bool byte"))
		return false
	}
}

func (d *stateDec) str(what string) string {
	n := d.count(what)
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// end reports the first failure, or trailing bytes after a whole block.
func (d *stateDec) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrBadState, len(d.b))
	}
	return d.err
}

func sortedStringSet(m map[string]bool) []string {
	ss := make([]string, 0, len(m))
	for s := range m {
		ss = append(ss, s)
	}
	sort.Strings(ss)
	return ss
}

// stateHeader is the head of block 0: the filter flags, the generation,
// the lengths of the definition log and of the group directory, and the
// sizes of the six definition tables the log rebuilds (types, locks,
// functions, contexts, stacks, allocations), so decoding makes each map
// once at its final size.
type stateHeader struct {
	flags  byte
	gen    uint64
	defs   int
	groups int
	tables [6]int
}

func (d *stateDec) header() stateHeader {
	if len(d.b) < len(stateMagic) || [4]byte(d.b[:4]) != stateMagic {
		d.fail("magic", errors.New("bad magic"))
		return stateHeader{}
	}
	d.b = d.b[len(stateMagic):]
	if v := d.byte("version"); d.err == nil && v != stateVersion {
		d.fail("version", fmt.Errorf("unsupported version %d", v))
	}
	h := stateHeader{flags: d.byte("flags"), gen: d.u64("generation")}
	h.defs = int(min(d.u64("definition count"), 1<<40))
	h.groups = d.count("group count")
	for i := range h.tables {
		// Every entry comes from a record of its own, and LoadState
		// checks the record count against the segment's blocks.
		h.tables[i] = int(min(d.u64("table size"), uint64(h.defs)))
	}
	return h
}

// StateLayout reads block 0 of an encoded state, meta, for the state's
// block counts: 1 + groups + chunks.
func StateLayout(meta []byte) (groups, chunks int, err error) {
	d := &stateDec{b: meta}
	h := d.header()
	return h.groups, chunksOf(h.defs), d.err
}

// AppendStateMeta appends block 0 of the store's state to b: the
// header (see stateHeader), the interned keys, the filter configuration, the ingest
// statistics, and the group directory in Groups() order, each entry
// naming its group's type by the log position of the type record the
// group was made under. The store must be a sealed view (or at least
// quiescent); the encoding is deterministic.
func (db *DB) AppendStateMeta(b []byte) []byte {
	b = append(b, stateMagic[:]...)
	var flags byte
	if db.noWoR {
		flags |= 1
	}
	if db.lenient {
		flags |= 2
	}
	b = append(b, stateVersion, flags)
	b = binary.AppendUvarint(b, db.gen)
	b = binary.AppendUvarint(b, uint64(db.nDefs))
	groups := db.Groups()
	b = binary.AppendUvarint(b, uint64(len(groups)))
	for _, n := range []int{len(db.Types), len(db.Locks), len(db.Funcs), len(db.Ctxs), len(db.Stacks), len(db.Allocs)} {
		b = binary.AppendUvarint(b, uint64(n))
	}

	b = binary.AppendUvarint(b, uint64(len(db.keys)))
	for _, k := range db.keys {
		b = append(b, byte(k.Kind), byte(k.Class))
		b = appendStr(b, k.Name)
		b = appendStr(b, k.OwnerType)
	}

	subbed := sortedStringSet(db.subbed)
	b = binary.AppendUvarint(b, uint64(len(subbed)))
	for _, s := range subbed {
		b = appendStr(b, s)
	}
	blFuncs := sortedStringSet(db.blFuncs)
	b = binary.AppendUvarint(b, uint64(len(blFuncs)))
	for _, s := range blFuncs {
		b = appendStr(b, s)
	}
	blTypes := make([]string, 0, len(db.blMembs))
	for t := range db.blMembs {
		blTypes = append(blTypes, t)
	}
	sort.Strings(blTypes)
	b = binary.AppendUvarint(b, uint64(len(blTypes)))
	for _, t := range blTypes {
		b = appendStr(b, t)
		members := sortedStringSet(db.blMembs[t])
		b = binary.AppendUvarint(b, uint64(len(members)))
		for _, m := range members {
			b = appendStr(b, m)
		}
	}

	for _, c := range []uint64{
		db.RawAccesses, db.FilteredAccesses, db.Transactions,
		db.UnresolvedAddrs, db.CrossCtxRelease, db.UnknownKindEvents,
		db.DroppedAllocs, db.DroppedFrees, db.UnknownLockOps,
		db.OpenAtEOF, uint64(db.BytesSkipped),
	} {
		b = binary.AppendUvarint(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(db.Corruptions)))
	for _, c := range db.Corruptions {
		b = binary.AppendUvarint(b, uint64(c.Offset))
		b = binary.AppendUvarint(b, uint64(c.BytesSkipped))
		b = appendStr(b, c.Cause.Error())
	}

	for _, g := range groups {
		b = binary.AppendUvarint(b, uint64(g.Type.def))
		b = appendStr(b, g.Key.Subclass)
		b = binary.AppendUvarint(b, uint64(g.Key.Member))
		b = appendBool(b, g.Key.Write)
		b = binary.AppendUvarint(b, g.Total)
		b = binary.AppendUvarint(b, g.EventSum)
		b = binary.AppendUvarint(b, g.Gen)
	}
	return b
}

// AppendGroupObs appends the encoding of one group's observations (the
// part the directory stubs of AppendStateMeta omit) to b,
// deterministically: sequences by signature, context counts by (func,
// stack).
func AppendGroupObs(b []byte, g *ObsGroup) []byte {
	sigs := make([]string, 0, len(g.Seqs))
	for sig := range g.Seqs {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	b = binary.AppendUvarint(b, uint64(len(sigs)))
	var ctxs []AccessCtx
	for _, sig := range sigs {
		so := g.Seqs[sig]
		b = binary.AppendUvarint(b, uint64(len(so.Seq)))
		for _, id := range so.Seq {
			b = binary.AppendUvarint(b, uint64(id))
		}
		b = binary.AppendUvarint(b, so.Count)
		b = binary.AppendUvarint(b, so.Events)
		ctxs = ctxs[:0]
		for c := range so.Contexts {
			ctxs = append(ctxs, c)
		}
		sort.Slice(ctxs, func(i, j int) bool {
			if ctxs[i].FuncID != ctxs[j].FuncID {
				return ctxs[i].FuncID < ctxs[j].FuncID
			}
			return ctxs[i].StackID < ctxs[j].StackID
		})
		b = binary.AppendUvarint(b, uint64(len(ctxs)))
		for _, c := range ctxs {
			b = binary.AppendUvarint(b, uint64(c.FuncID))
			b = binary.AppendUvarint(b, uint64(c.StackID))
			b = binary.AppendUvarint(b, so.Contexts[c])
		}
	}
	return b
}

// DecodeGroupObs inverts AppendGroupObs, filling g.Seqs.
func DecodeGroupObs(data []byte, g *ObsGroup) error {
	d := &stateDec{b: data}
	nSeqs := d.count("sequence count")
	seqs := make(map[string]*SeqObs, nSeqs)
	for i := 0; i < nSeqs && d.err == nil; i++ {
		var seq LockSeq
		if n := d.count("sequence length"); n > 0 {
			seq = make(LockSeq, n)
			for j := range seq {
				seq[j] = KeyID(d.u32("lock key id"))
			}
		}
		so := &SeqObs{
			Seq:    seq,
			Count:  d.u64("observation count"),
			Events: d.u64("event count"),
		}
		nCtx := d.count("context count")
		so.Contexts = make(map[AccessCtx]uint64, nCtx)
		for j := 0; j < nCtx && d.err == nil; j++ {
			c := AccessCtx{FuncID: d.u32("context func"), StackID: d.u32("context stack")}
			so.Contexts[c] = d.u64("context events")
		}
		seqs[seq.Signature()] = so
	}
	if err := d.end(); err != nil {
		return err
	}
	g.Seqs = seqs
	return nil
}

// DecodeState inverts the encoding of a state: meta is block 0, chunk
// returns the bytes of definition chunk j (read once each, in order,
// and not kept), and src materializes the observation groups, which are
// unhydrated stubs until first use. The result is a sealed store that
// serves lookups, derivation and reporting exactly like the view that
// was encoded.
func DecodeState(meta []byte, chunk func(j int) ([]byte, error), src GroupSource) (*DB, error) {
	d := &stateDec{b: meta}
	h := d.header()
	if d.err != nil {
		return nil, d.err
	}
	db := &DB{
		Types:   make(map[uint32]*DataType, h.tables[0]),
		Locks:   make(map[uint64]*LockInfo, h.tables[1]),
		Funcs:   make(map[uint32]*Func, h.tables[2]),
		Ctxs:    make(map[uint32]*CtxInfo, h.tables[3]),
		Stacks:  make(map[uint32][]uint32, h.tables[4]),
		Allocs:  make(map[uint64]*Allocation, h.tables[5]),
		keyIDs:  make(map[LockKey]KeyID),
		subbed:  make(map[string]bool),
		blFuncs: make(map[string]bool),
		blMembs: make(map[string]map[string]bool),
		noWoR:   h.flags&1 != 0,
		lenient: h.flags&2 != 0,
		gen:     h.gen,
		sealed:  true,
		src:     src,
	}
	for j := range chunksOf(h.defs) {
		data, err := chunk(j)
		if err != nil {
			return nil, fmt.Errorf("db: reading definition chunk %d: %w", j, err)
		}
		if err := db.applyDefChunk(data, min(defChunkLen, h.defs-j*defChunkLen)); err != nil {
			return nil, fmt.Errorf("definition chunk %d: %w", j, err)
		}
	}

	nKeys := d.count("key count")
	db.keys = make([]LockKey, 0, nKeys)
	for i := 0; i < nKeys && d.err == nil; i++ {
		k := LockKey{Kind: LockKind(d.byte("key kind"))}
		k.Class = trace.LockClass(d.byte("key class"))
		k.Name = d.str("key name")
		k.OwnerType = d.str("key owner type")
		if d.err == nil {
			db.keyIDs[k] = KeyID(len(db.keys))
			db.keys = append(db.keys, k)
		}
	}

	nSub := d.count("subclassed count")
	for i := 0; i < nSub && d.err == nil; i++ {
		db.subbed[d.str("subclassed type")] = true
	}
	nBlF := d.count("func blacklist count")
	for i := 0; i < nBlF && d.err == nil; i++ {
		db.blFuncs[d.str("blacklisted func")] = true
	}
	nBlT := d.count("member blacklist count")
	for i := 0; i < nBlT && d.err == nil; i++ {
		t := d.str("blacklisted type")
		n := d.count("blacklisted member count")
		set := make(map[string]bool, n)
		for j := 0; j < n && d.err == nil; j++ {
			set[d.str("blacklisted member")] = true
		}
		if d.err == nil {
			db.blMembs[t] = set
		}
	}

	db.RawAccesses = d.u64("raw accesses")
	db.FilteredAccesses = d.u64("filtered accesses")
	db.Transactions = d.u64("transactions")
	db.UnresolvedAddrs = d.u64("unresolved addrs")
	db.CrossCtxRelease = d.u64("cross-ctx releases")
	db.UnknownKindEvents = d.u64("unknown-kind events")
	db.DroppedAllocs = d.u64("dropped allocs")
	db.DroppedFrees = d.u64("dropped frees")
	db.UnknownLockOps = d.u64("unknown lock ops")
	db.OpenAtEOF = d.u64("open at eof")
	db.BytesSkipped = int64(d.u64("bytes skipped"))
	nCorr := d.count("corruption count")
	for i := 0; i < nCorr && d.err == nil; i++ {
		c := trace.CorruptionReport{Offset: int64(d.u64("corruption offset"))}
		c.BytesSkipped = int64(d.u64("corruption bytes"))
		c.Cause = errors.New(d.str("corruption cause"))
		if d.err == nil {
			db.Corruptions = append(db.Corruptions, c)
		}
	}

	if h.groups > 0 {
		db.srcIdx = make(map[*ObsGroup]int, h.groups)
	}
	db.rowOf = make(map[rowKey]int32)
	for i := 0; i < h.groups && d.err == nil; i++ {
		def := d.u64("group type record")
		sub := d.str("group subclass")
		member := d.u64("group member")
		write := d.bool("group write")
		g := &ObsGroup{
			Total:    d.u64("group total"),
			EventSum: d.u64("group event sum"),
			Gen:      d.u64("group gen"),
			shared:   true,
		}
		if d.err != nil {
			break
		}
		if def >= uint64(db.nDefs) {
			return nil, fmt.Errorf("%w: group references record %d of %d", ErrBadState, def, db.nDefs)
		}
		t, ok := db.defs[def/defChunkLen].recs[def%defChunkLen].(*DataType)
		if !ok {
			return nil, fmt.Errorf("%w: group references record %d, not a type definition", ErrBadState, def)
		}
		if member >= uint64(len(t.Members)) {
			return nil, fmt.Errorf("%w: group references member %d of %s (%d members)",
				ErrBadState, member, t.Name, len(t.Members))
		}
		g.Key = GroupKey{TypeID: t.ID, Subclass: sub, Member: int(member), Write: write}
		g.Type = t
		p := db.place(db.row(rowKey{t.ID, sub}), g.Key.Member, write, len(t.Members))
		if *p == nil {
			db.nGroups++
		}
		*p = g
		db.srcIdx[g] = i
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return db, nil
}
