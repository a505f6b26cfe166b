package db

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"lockdoc/internal/trace"
)

// This file is the sealed-store state codec: a deterministic binary
// serialization of a sealed view (definition tables, interned lock
// keys, filter configuration, ingest statistics, and the observation
// groups) that internal/segstore persists into compressed segment
// blocks. The split matters for reopen latency: EncodeStateMeta holds
// everything EXCEPT per-group observations plus a directory of group
// stubs, so DecodeStateMeta rebuilds a servable sealed store without
// touching the (much larger) observation payloads. Each group's
// observations are encoded by EncodeGroupObs into its own block and
// materialized lazily — DB.Hydrate pulls a stub's payload through the
// GroupSource the store registered, the first time derivation (or a
// group lookup) actually needs its sequences.
//
// Everything is written in a fixed order (tables by ID, keys by KeyID,
// groups in Groups() order, sequences by signature, contexts by
// (func, stack)), so encoding a sealed view twice yields identical
// bytes and a decoded store is observationally identical to the view
// that was encoded: same KeyIDs, same signatures, same derivation
// results, byte-identical server responses.

// GroupSource materializes lazily-loaded observation groups.
// internal/segstore implements it on top of per-group segment blocks.
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

// State codec wire format.
const (
	stateVersion = 1

	maxStateString = 1 << 16
	maxStateCount  = 1 << 26
)

var stateMagic = [4]byte{'L', 'K', 'S', 'T'}

// ErrBadState is returned (wrapped) when a state snapshot fails to
// decode.
var ErrBadState = errors.New("db: corrupt state snapshot")

type stateEnc struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (e *stateEnc) u64(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *stateEnc) byte(b byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(b)
	}
}

func (e *stateEnc) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *stateEnc) str(s string) {
	e.u64(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

type stateDec struct {
	r   *bufio.Reader
	err error
}

func (d *stateDec) fail(what string, err error) {
	if d.err == nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		d.err = fmt.Errorf("%w: reading %s: %v", ErrBadState, what, err)
	}
}

func (d *stateDec) u64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.fail(what, err)
		return 0
	}
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

func (d *stateDec) count(what string, max int) int {
	v := d.u64(what)
	if d.err == nil && v > uint64(max) {
		d.fail(what, fmt.Errorf("count %d exceeds limit %d", v, max))
		return 0
	}
	return int(v)
}

func (d *stateDec) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.fail(what, err)
		return 0
	}
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
	n := d.count(what, maxStateString)
	if d.err != nil || n == 0 {
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.fail(what, err)
		return ""
	}
	return string(buf)
}

func sortedMapKeys[K interface {
	~uint32 | ~uint64
}, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func sortedStringSet(m map[string]bool) []string {
	ss := make([]string, 0, len(m))
	for s := range m {
		ss = append(ss, s)
	}
	sort.Strings(ss)
	return ss
}

// EncodeStateMeta serializes everything but per-group observations:
// definition tables, interned keys, filter configuration, ingest
// statistics, and a directory of group stubs in Groups() order. The
// store must be a sealed view (or at least quiescent); the encoding is
// deterministic.
func (db *DB) EncodeStateMeta(w io.Writer) error {
	e := &stateEnc{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := e.w.Write(stateMagic[:]); err != nil {
		return err
	}
	e.byte(stateVersion)
	var flags byte
	if db.noWoR {
		flags |= 1
	}
	if db.lenient {
		flags |= 2
	}
	e.byte(flags)
	e.u64(db.gen)

	e.u64(uint64(len(db.Types)))
	for _, id := range sortedMapKeys(db.Types) {
		t := db.Types[id]
		e.u64(uint64(t.ID))
		e.str(t.Name)
		e.u64(uint64(len(t.Members)))
		for _, m := range t.Members {
			e.str(m.Name)
			e.u64(uint64(m.Offset))
			e.u64(uint64(m.Size))
			e.bool(m.Atomic)
			e.bool(m.IsLock)
		}
	}
	e.u64(uint64(len(db.Locks)))
	for _, id := range sortedMapKeys(db.Locks) {
		l := db.Locks[id]
		e.u64(l.ID)
		e.str(l.Name)
		e.byte(byte(l.Class))
		e.u64(l.OwnerID)
		e.str(l.OwnerType)
	}
	e.u64(uint64(len(db.Funcs)))
	for _, id := range sortedMapKeys(db.Funcs) {
		f := db.Funcs[id]
		e.u64(uint64(f.ID))
		e.str(f.File)
		e.u64(uint64(f.Line))
		e.str(f.Name)
	}
	e.u64(uint64(len(db.Ctxs)))
	for _, id := range sortedMapKeys(db.Ctxs) {
		c := db.Ctxs[id]
		e.u64(uint64(c.ID))
		e.byte(byte(c.Kind))
		e.str(c.Name)
	}
	e.u64(uint64(len(db.Stacks)))
	for _, id := range sortedMapKeys(db.Stacks) {
		frames := db.Stacks[id]
		e.u64(uint64(id))
		e.u64(uint64(len(frames)))
		for _, f := range frames {
			e.u64(uint64(f))
		}
	}
	e.u64(uint64(len(db.Allocs)))
	for _, id := range sortedMapKeys(db.Allocs) {
		a := db.Allocs[id]
		e.u64(a.ID)
		e.u64(uint64(a.Type.ID))
		e.str(a.Subclass)
		e.u64(a.Addr)
		e.u64(uint64(a.Size))
		e.bool(a.Live)
	}

	e.u64(uint64(len(db.keys)))
	for _, k := range db.keys {
		e.byte(byte(k.Kind))
		e.byte(byte(k.Class))
		e.str(k.Name)
		e.str(k.OwnerType)
	}

	subbed := sortedStringSet(db.subbed)
	e.u64(uint64(len(subbed)))
	for _, s := range subbed {
		e.str(s)
	}
	blFuncs := sortedStringSet(db.blFuncs)
	e.u64(uint64(len(blFuncs)))
	for _, s := range blFuncs {
		e.str(s)
	}
	blTypes := make([]string, 0, len(db.blMembs))
	for t := range db.blMembs {
		blTypes = append(blTypes, t)
	}
	sort.Strings(blTypes)
	e.u64(uint64(len(blTypes)))
	for _, t := range blTypes {
		e.str(t)
		members := sortedStringSet(db.blMembs[t])
		e.u64(uint64(len(members)))
		for _, m := range members {
			e.str(m)
		}
	}

	for _, c := range []uint64{
		db.RawAccesses, db.FilteredAccesses, db.Transactions,
		db.UnresolvedAddrs, db.CrossCtxRelease, db.UnknownKindEvents,
		db.DroppedAllocs, db.DroppedFrees, db.UnknownLockOps,
		db.OpenAtEOF, uint64(db.BytesSkipped),
	} {
		e.u64(c)
	}
	e.u64(uint64(len(db.Corruptions)))
	for _, c := range db.Corruptions {
		e.u64(uint64(c.Offset))
		e.u64(uint64(c.BytesSkipped))
		e.str(c.Cause.Error())
	}

	groups := db.Groups()
	e.u64(uint64(len(groups)))
	for _, g := range groups {
		e.u64(uint64(g.Key.TypeID))
		e.str(g.Key.Subclass)
		e.u64(uint64(g.Key.Member))
		e.bool(g.Key.Write)
		e.u64(g.Total)
		e.u64(g.EventSum)
		e.u64(g.Gen)
	}
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// EncodeGroupObs serializes one group's observations (the part
// EncodeStateMeta's directory stubs omit) deterministically: sequences
// by signature, context counts by (func, stack).
func (db *DB) EncodeGroupObs(w io.Writer, g *ObsGroup) error {
	e := &stateEnc{w: bufio.NewWriterSize(w, 1<<13)}
	sigs := make([]string, 0, len(g.Seqs))
	for sig := range g.Seqs {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	e.u64(uint64(len(sigs)))
	for _, sig := range sigs {
		so := g.Seqs[sig]
		e.u64(uint64(len(so.Seq)))
		for _, id := range so.Seq {
			e.u64(uint64(id))
		}
		e.u64(so.Count)
		e.u64(so.Events)
		ctxs := make([]AccessCtx, 0, len(so.Contexts))
		for c := range so.Contexts {
			ctxs = append(ctxs, c)
		}
		sort.Slice(ctxs, func(i, j int) bool {
			if ctxs[i].FuncID != ctxs[j].FuncID {
				return ctxs[i].FuncID < ctxs[j].FuncID
			}
			return ctxs[i].StackID < ctxs[j].StackID
		})
		e.u64(uint64(len(ctxs)))
		for _, c := range ctxs {
			e.u64(uint64(c.FuncID))
			e.u64(uint64(c.StackID))
			e.u64(so.Contexts[c])
		}
	}
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// DecodeGroupObs inverts EncodeGroupObs, filling g.Seqs.
func DecodeGroupObs(r io.Reader, g *ObsGroup) error {
	d := &stateDec{r: bufio.NewReaderSize(r, 1<<13)}
	nSeqs := d.count("sequence count", maxStateCount)
	seqs := make(map[string]*SeqObs, nSeqs)
	for i := 0; i < nSeqs && d.err == nil; i++ {
		nIDs := d.count("sequence length", maxStateCount)
		var seq LockSeq
		if nIDs > 0 {
			seq = make(LockSeq, nIDs)
			for j := range seq {
				seq[j] = KeyID(d.u32("lock key id"))
			}
		}
		so := &SeqObs{
			Seq:    seq,
			Count:  d.u64("observation count"),
			Events: d.u64("event count"),
		}
		nCtx := d.count("context count", maxStateCount)
		so.Contexts = make(map[AccessCtx]uint64, nCtx)
		for j := 0; j < nCtx && d.err == nil; j++ {
			c := AccessCtx{FuncID: d.u32("context func"), StackID: d.u32("context stack")}
			so.Contexts[c] = d.u64("context events")
		}
		seqs[seq.Signature()] = so
	}
	if d.err != nil {
		return d.err
	}
	g.Seqs = seqs
	return nil
}

// DecodeStateMeta inverts EncodeStateMeta, returning a sealed store
// whose groups are unhydrated stubs that materialize on demand through
// src. The result serves lookups, derivation and reporting exactly
// like the view that was encoded.
func DecodeStateMeta(r io.Reader, src GroupSource) (*DB, error) {
	d := &stateDec{r: bufio.NewReaderSize(r, 1<<16)}
	var m [4]byte
	if _, err := io.ReadFull(d.r, m[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrBadState, err)
	}
	if m != stateMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadState, m)
	}
	if v := d.byte("version"); d.err == nil && v != stateVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadState, v)
	}
	flags := d.byte("flags")
	db := &DB{
		Types:   make(map[uint32]*DataType),
		Locks:   make(map[uint64]*LockInfo),
		Funcs:   make(map[uint32]*Func),
		Ctxs:    make(map[uint32]*CtxInfo),
		Stacks:  make(map[uint32][]uint32),
		Allocs:  make(map[uint64]*Allocation),
		keyIDs:  make(map[LockKey]KeyID),
		subbed:  make(map[string]bool),
		blFuncs: make(map[string]bool),
		blMembs: make(map[string]map[string]bool),
		noWoR:   flags&1 != 0,
		lenient: flags&2 != 0,
		sealed:  true,
		src:     src,
	}
	db.gen = d.u64("generation")

	nTypes := d.count("type count", maxStateCount)
	for i := 0; i < nTypes && d.err == nil; i++ {
		t := &DataType{ID: d.u32("type id"), Name: d.str("type name")}
		nm := d.count("member count", maxStateCount)
		t.Members = make([]trace.MemberDef, nm)
		for j := range t.Members {
			mm := &t.Members[j]
			mm.Name = d.str("member name")
			mm.Offset = d.u32("member offset")
			mm.Size = d.u32("member size")
			mm.Atomic = d.bool("member atomic")
			mm.IsLock = d.bool("member islock")
		}
		db.Types[t.ID] = t
	}
	nLocks := d.count("lock count", maxStateCount)
	for i := 0; i < nLocks && d.err == nil; i++ {
		l := &LockInfo{ID: d.u64("lock id"), Name: d.str("lock name")}
		l.Class = trace.LockClass(d.byte("lock class"))
		l.OwnerID = d.u64("lock owner id")
		l.OwnerType = d.str("lock owner type")
		db.Locks[l.ID] = l
	}
	nFuncs := d.count("func count", maxStateCount)
	for i := 0; i < nFuncs && d.err == nil; i++ {
		f := &Func{ID: d.u32("func id"), File: d.str("func file")}
		f.Line = d.u32("func line")
		f.Name = d.str("func name")
		db.Funcs[f.ID] = f
	}
	nCtxs := d.count("ctx count", maxStateCount)
	for i := 0; i < nCtxs && d.err == nil; i++ {
		c := &CtxInfo{ID: d.u32("ctx id")}
		c.Kind = trace.CtxKind(d.byte("ctx kind"))
		c.Name = d.str("ctx name")
		db.Ctxs[c.ID] = c
	}
	nStacks := d.count("stack count", maxStateCount)
	for i := 0; i < nStacks && d.err == nil; i++ {
		id := d.u32("stack id")
		n := d.count("stack depth", maxStateCount)
		frames := make([]uint32, n)
		for j := range frames {
			frames[j] = d.u32("stack frame")
		}
		db.Stacks[id] = frames
	}
	nAllocs := d.count("alloc count", maxStateCount)
	for i := 0; i < nAllocs && d.err == nil; i++ {
		a := &Allocation{ID: d.u64("alloc id")}
		typeID := d.u32("alloc type")
		a.Subclass = d.str("alloc subclass")
		a.Addr = d.u64("alloc addr")
		a.Size = d.u32("alloc size")
		a.Live = d.bool("alloc live")
		if d.err == nil {
			a.Type = db.Types[typeID]
			if a.Type == nil {
				return nil, fmt.Errorf("%w: allocation %d references undefined type %d", ErrBadState, a.ID, typeID)
			}
			db.Allocs[a.ID] = a
		}
	}

	nKeys := d.count("key count", maxStateCount)
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

	nSub := d.count("subclassed count", maxStateCount)
	for i := 0; i < nSub && d.err == nil; i++ {
		db.subbed[d.str("subclassed type")] = true
	}
	nBlF := d.count("func blacklist count", maxStateCount)
	for i := 0; i < nBlF && d.err == nil; i++ {
		db.blFuncs[d.str("blacklisted func")] = true
	}
	nBlT := d.count("member blacklist count", maxStateCount)
	for i := 0; i < nBlT && d.err == nil; i++ {
		t := d.str("blacklisted type")
		n := d.count("blacklisted member count", maxStateCount)
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
	nCorr := d.count("corruption count", maxStateCount)
	for i := 0; i < nCorr && d.err == nil; i++ {
		c := trace.CorruptionReport{Offset: int64(d.u64("corruption offset"))}
		c.BytesSkipped = int64(d.u64("corruption bytes"))
		c.Cause = errors.New(d.str("corruption cause"))
		if d.err == nil {
			db.Corruptions = append(db.Corruptions, c)
		}
	}

	nGroups := d.count("group count", maxStateCount)
	if nGroups > 0 {
		db.srcIdx = make(map[*ObsGroup]int, nGroups)
	}
	db.rowOf = make(map[rowKey]int32)
	for i := 0; i < nGroups && d.err == nil; i++ {
		gk := GroupKey{TypeID: d.u32("group type")}
		gk.Subclass = d.str("group subclass")
		gk.Member = int(d.u64("group member"))
		gk.Write = d.bool("group write")
		g := &ObsGroup{
			Key:      gk,
			Total:    d.u64("group total"),
			EventSum: d.u64("group event sum"),
			Gen:      d.u64("group gen"),
			shared:   true,
		}
		if d.err != nil {
			break
		}
		g.Type = db.Types[gk.TypeID]
		if g.Type == nil {
			return nil, fmt.Errorf("%w: group references undefined type %d", ErrBadState, gk.TypeID)
		}
		if gk.Member < 0 || gk.Member >= len(g.Type.Members) {
			return nil, fmt.Errorf("%w: group references member %d of %s (%d members)",
				ErrBadState, gk.Member, g.Type.Name, len(g.Type.Members))
		}
		p := db.place(db.row(rowKey{gk.TypeID, gk.Subclass}), gk.Member, gk.Write, len(g.Type.Members))
		if *p == nil {
			db.nGroups++
		}
		*p = g
		db.srcIdx[g] = i
	}
	if d.err != nil {
		return nil, d.err
	}
	return db, nil
}
