package db

import (
	"cmp"
	"fmt"
	"io"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"lockdoc/internal/addrindex"
	"lockdoc/internal/trace"
)

// Config controls filtering during import, mirroring the paper's black
// lists (Sec. 5.3).
type Config struct {
	// FuncBlacklist lists function names whose dynamic extent is
	// filtered: accesses with any black-listed function on the call
	// stack are dropped. The paper uses this for object initialization
	// and teardown code and for atomic helper functions.
	FuncBlacklist []string

	// MemberBlacklist maps a type name to member names that are out of
	// scope for the experiments.
	MemberBlacklist map[string][]string

	// SubclassedTypes lists types whose observations are split by the
	// allocation subclass (the paper subclasses struct inode by
	// filesystem).
	SubclassedTypes []string

	// NoWriteOverRead disables the write-over-read folding rule
	// (Sec. 4.2): transactions containing both reads and writes of a
	// member then contribute a read AND a write observation. Only used
	// by the WoR ablation benchmark.
	NoWriteOverRead bool

	// Lenient tolerates the damage a resynchronized (or fuzzed) trace
	// leaves behind instead of aborting the import: events of unknown
	// kinds are skipped (forward compatibility), allocations of
	// undefined types and frees of undefined allocations are counted
	// and dropped rather than misattributed. Every drop is surfaced in
	// the import-statistics counters.
	Lenient bool

	// Metrics, when non-nil, receives consume/seal instrument updates
	// (see Metrics). It never changes store behaviour.
	Metrics *Metrics
}

// DB is the populated store.
type DB struct {
	Types  map[uint32]*DataType
	Locks  map[uint64]*LockInfo
	Funcs  map[uint32]*Func
	Ctxs   map[uint32]*CtxInfo
	Stacks map[uint32][]uint32
	Allocs map[uint64]*Allocation

	keys   []LockKey
	keyIDs map[LockKey]KeyID

	// defs logs every definition Add accepted, nDefs records in chunks
	// (see DefChunk). A sealed view shares the chunks, capped, with its
	// own count.
	defs  []*DefChunk
	nDefs int

	// Observation groups in rows, one row per (type ID, subclass) in
	// order of first use: rows[r][2*member] is the member's read group
	// and rows[r][2*member+1] its write group, nil until observed.
	// rowOf finds a row by its key when an allocation is made or a
	// state decoded; Seal does not copy it.
	rows    [][]*ObsGroup
	rowOf   map[rowKey]int32
	nGroups int

	// A sealed view sorts its groups once, for every caller of Groups.
	sortOnce sync.Once
	sorted   []*ObsGroup

	subbed  map[string]bool
	blFuncs map[string]bool
	blMembs map[string]map[string]bool

	// Import statistics.
	RawAccesses      uint64 // memory-access events seen
	FilteredAccesses uint64 // dropped by any filter
	Transactions     uint64 // distinct transaction instances with >= 1 access
	UnresolvedAddrs  uint64 // accesses outside any live allocation
	CrossCtxRelease  uint64 // releases of locks not held by the releasing context

	// Degraded-mode statistics: what a lenient import counted and
	// dropped, plus the corruption the reader recovered from.
	UnknownKindEvents uint64 // events of kinds this build does not know
	DroppedAllocs     uint64 // allocations referencing undefined types
	DroppedFrees      uint64 // frees of undefined allocations
	UnknownLockOps    uint64 // acquires of undefined locks
	OpenAtEOF         uint64 // transactions left open and finalized at end of trace
	Corruptions       []trace.CorruptionReport
	BytesSkipped      int64 // trace bytes the reader discarded during resync

	// internal streaming state
	addrs       addrindex.Index[*Allocation] // live allocations by address
	ctxState    map[uint32]*ctxState
	stackBlMemo map[uint32]int8 // interned stackID -> -1 not blacklisted / 1 blacklisted
	noWoR       bool
	lenient     bool
	metrics     *Metrics
	gen         uint64 // current generation; advanced by Seal
	sealed      bool   // read-only view produced by Seal

	// Fold scratch, reused across transactions: flushed pending
	// observations, and the lock sequence and signature of the
	// observation being committed.
	free   []*pendObs
	seqBuf LockSeq
	sigBuf []byte

	// Lazy-materialization state for stores decoded from a state
	// snapshot (see state.go): src pulls a stub group's observations on
	// first use, srcIdx maps each stub to its directory index, and
	// hydrateMu serializes materialization across parallel derivation
	// workers.
	src        GroupSource
	srcIdx     map[*ObsGroup]int
	hydrateMu  sync.Mutex
	hydrateErr error
}

// ctxState tracks per-execution-context transaction reconstruction:
// the held locks and the open transaction's pending observations in
// arrival order, each also reached from its allocation (see pendSet).
// Both are emptied, not dropped, when the transaction ends, so they
// keep their capacity.
type ctxState struct {
	held  []heldLock
	order []*pendObs
}

// rowKey names a group row: a type ID and, for a subclassed type, the
// allocation subclass.
type rowKey struct {
	typeID uint32
	sub    string
}

type heldLock struct {
	lock *LockInfo
	// ids memoizes the lock's interned key once some commit has interned
	// it: [0] is the global or ES key, [1] the EO key, noKey before.
	ids [2]KeyID
}

// noKey marks an unmemoized heldLock key ID.
const noKey = ^KeyID(0)

// pendObs is one folded (allocation ID, member) observation of the open
// transaction of cs: the allocation that first touched the member, its
// read and write event counts, and the events per access context in
// first-seen order. A transaction touches a member from very few
// contexts, so a linear scan beats a map. next links the observations
// other contexts have pending on the same member.
type pendObs struct {
	alloc     *Allocation
	member    int
	cs        *ctxState
	next      *pendObs
	reads     uint64
	writes    uint64
	readCtxs  []ctxCount
	writeCtxs []ctxCount
}

// pendSet reaches the pending observations on one allocation ID:
// heads[m] lists those on member m, at most one per context. Every
// allocation with that ID shares the set, so a transaction folds its
// accesses by (allocation ID, member) even across a reuse of the ID.
// heads is made at the first pending observation and dropped once
// nothing is pending and the ID's allocation is freed, because sealed
// views keep every allocation; n counts what is pending, and live is
// set by the ID's allocation and cleared by its free. n is an int32 so
// that live fits in the set's 32 bytes.
type pendSet struct {
	heads []*pendObs
	n     int32
	live  bool
}

// find returns the observation cs has pending on member mi, or nil.
func (ps *pendSet) find(cs *ctxState, mi int) *pendObs {
	if mi >= len(ps.heads) {
		return nil
	}
	po := ps.heads[mi]
	for po != nil && po.cs != cs {
		po = po.next
	}
	return po
}

// add links po, a new observation on an allocation whose type has
// members members, making or growing heads to hold them.
func (ps *pendSet) add(po *pendObs, members int) {
	if po.member >= len(ps.heads) {
		ps.heads = append(ps.heads, make([]*pendObs, members-len(ps.heads))...)
	}
	po.next = ps.heads[po.member]
	ps.heads[po.member] = po
	ps.n++
}

// remove unlinks po.
func (ps *pendSet) remove(po *pendObs) {
	p := &ps.heads[po.member]
	for *p != po {
		p = &(*p).next
	}
	*p = po.next
	if ps.n--; ps.n == 0 && !ps.live {
		ps.heads = nil
	}
}

type ctxCount struct {
	ctx AccessCtx
	n   uint64
}

// bumpCtx adds one event from ctx to cs.
func bumpCtx(cs []ctxCount, ctx AccessCtx) []ctxCount {
	for i := range cs {
		if cs[i].ctx == ctx {
			cs[i].n++
			return cs
		}
	}
	return append(cs, ctxCount{ctx: ctx, n: 1})
}

// New creates an empty store with the given filter configuration.
func New(cfg Config) *DB {
	db := &DB{
		Types:       make(map[uint32]*DataType),
		Locks:       make(map[uint64]*LockInfo),
		Funcs:       make(map[uint32]*Func),
		Ctxs:        make(map[uint32]*CtxInfo),
		Stacks:      make(map[uint32][]uint32),
		Allocs:      make(map[uint64]*Allocation),
		keyIDs:      make(map[LockKey]KeyID),
		rowOf:       make(map[rowKey]int32),
		subbed:      make(map[string]bool),
		blFuncs:     make(map[string]bool),
		blMembs:     make(map[string]map[string]bool),
		ctxState:    make(map[uint32]*ctxState),
		stackBlMemo: make(map[uint32]int8),
	}
	for _, f := range cfg.FuncBlacklist {
		db.blFuncs[f] = true
	}
	for ty, ms := range cfg.MemberBlacklist {
		set := make(map[string]bool, len(ms))
		for _, m := range ms {
			set[m] = true
		}
		db.blMembs[ty] = set
	}
	for _, t := range cfg.SubclassedTypes {
		db.subbed[t] = true
	}
	db.noWoR = cfg.NoWriteOverRead
	db.lenient = cfg.Lenient
	db.metrics = cfg.Metrics
	db.gen = 1
	return db
}

// Import streams the whole trace from r into the store. Any corruption
// the reader recovered from (lenient reader mode) is copied into the
// store's Corruptions/BytesSkipped statistics.
func Import(r *trace.Reader, cfg Config) (*DB, error) {
	db := New(cfg)
	if _, err := db.Consume(r); err != nil {
		return nil, err
	}
	db.Flush()
	return db, nil
}

// Consume streams every remaining event of r into the store WITHOUT
// finalizing open transactions, so a later Consume of a continuation of
// the same logical trace resumes reconstruction exactly where this call
// stopped: per-context held-lock stacks and pending folded accesses
// carry over. Corruption the reader recovered from is folded into the
// store's counters. It returns the number of events applied.
//
// The store's merged state after consuming chunks c1..cn is identical
// to consuming their concatenation in one call; Flush (or Seal) then
// yields the same observations a batch Import of the concatenated trace
// would.
//
// Decoding runs beside import: a goroutine reads r into a small ring of
// event batches while the caller applies them with Add in trace order.
// Consume returns only after that goroutine has exited, and re-raises
// on the caller's goroutine, as a *DecodePanic, any panic raised while
// reading r. On a decode error every event before it is applied and the
// error is returned wrapped, with no corruption folded; on an Add error
// that error is returned as is. After an error r may have decoded up to
// one ring past the last applied event, so it is not reusable.
func (db *DB) Consume(r *trace.Reader) (int, error) {
	if db.sealed {
		return 0, errSealed
	}
	start := time.Now()
	free := make(chan []trace.Event, consumeRing)
	full := make(chan decoded, consumeRing)
	stop := make(chan struct{})
	for i := 0; i < consumeRing; i++ {
		free <- make([]trace.Event, consumeBatch)
	}
	go decodeInto(r, free, full, stop)
	defer func() {
		// Stop and join: after an Add error or panic the decoder finishes
		// the batch in flight, takes no other, and closes full as it exits.
		close(stop)
		for range full {
		}
	}()

	n := 0
	for b := range full {
		for i := range b.evs {
			if err := db.Add(&b.evs[i]); err != nil {
				return n, err
			}
			n++
		}
		switch {
		case b.panicked != nil:
			panic(b.panicked)
		case b.err == io.EOF:
			// The decoder stops at EOF; the loop ends when it closes full.
		case b.err != nil:
			return n, fmt.Errorf("db: import: %w", b.err)
		default:
			free <- b.evs
		}
	}
	db.Corruptions = append(db.Corruptions, r.Corruptions()...)
	db.BytesSkipped += r.BytesSkipped()
	db.metrics.consume(start, n)
	return n, nil
}

// Consume's ring: consumeRing batches of consumeBatch events each
// (about 287 KB, at 280 bytes an event) circulate between the decoder
// and the importer. On two CPUs, smaller batches or a ring of two were
// slower, and larger batches were not clearly faster.
const (
	consumeBatch = 256
	consumeRing  = 4
)

// decoded is one batch the decoder hands to Consume: events in trace
// order, then what ended decoding, if anything: the error from Read
// (io.EOF at a clean end) or a recovered panic.
type decoded struct {
	evs      []trace.Event
	err      error
	panicked *DecodePanic
}

// A DecodePanic is what Consume raises when reading the trace panicked
// on its decode goroutine: the original panic value, and the stack of
// that goroutine where it panicked, which the raise on the caller's
// goroutine would otherwise lose.
type DecodePanic struct {
	Value any
	Stack []byte
}

func (p *DecodePanic) Error() string {
	return fmt.Sprintf("%v\n\ntrace decoder goroutine:\n%s", p.Value, p.Stack)
}

// Unwrap returns the original panic value if it is an error.
func (p *DecodePanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// decodeInto fills batches from free with events read from r and sends
// them on full, which it closes when it returns: at the end of r, on a
// read error, on a panic, or once stop is closed. Only consumeRing
// batches exist and full holds as many, so a send never blocks. Once
// stop is closed it takes no new batch, so it reads at most the rest of
// the batch in flight. Read overwrites every field of the event it
// decodes into, so a recycled batch carries nothing over.
func decodeInto(r *trace.Reader, free <-chan []trace.Event, full chan<- decoded, stop <-chan struct{}) {
	defer close(full)
	var evs []trace.Event
	n := 0
	defer func() {
		if p := recover(); p != nil {
			full <- decoded{evs: evs[:n], panicked: &DecodePanic{Value: p, Stack: debug.Stack()}}
		}
	}()
	for {
		// A select picks at random among ready cases, so check stop
		// first: a free batch must not win over it.
		select {
		case <-stop:
			return
		default:
		}
		select {
		case <-stop:
			return
		case evs = <-free:
		}
		var err error
		for n = 0; n < len(evs); n++ {
			if err = r.Read(&evs[n]); err != nil {
				break
			}
		}
		full <- decoded{evs: evs[:n], err: err}
		if err != nil {
			return
		}
	}
}

var errSealed = fmt.Errorf("db: store is a sealed read-only view")

// Add processes a single event. Events must arrive in trace order.
func (db *DB) Add(ev *trace.Event) error {
	if db.sealed {
		return errSealed
	}
	switch ev.Kind {
	case trace.KindDefType, trace.KindDefLock, trace.KindDefFunc, trace.KindDefCtx,
		trace.KindDefStack, trace.KindAlloc, trace.KindFree:
		return db.define(ev)
	case trace.KindAcquire:
		cs := db.ctx(ev.Ctx)
		db.flushCtx(cs)
		if li, ok := db.Locks[ev.LockID]; ok {
			cs.held = append(cs.held, heldLock{lock: li, ids: [2]KeyID{noKey, noKey}})
		} else {
			db.UnknownLockOps++
		}
	case trace.KindRelease:
		cs := db.ctx(ev.Ctx)
		db.flushCtx(cs)
		found := false
		for i := len(cs.held) - 1; i >= 0; i-- {
			if cs.held[i].lock.ID == ev.LockID {
				cs.held = append(cs.held[:i], cs.held[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			db.CrossCtxRelease++
		}
	case trace.KindRead, trace.KindWrite:
		db.RawAccesses++
		db.access(ev)
	case trace.KindFuncEnter, trace.KindFuncExit, trace.KindCoverage:
		// Not needed for rule derivation; coverage is computed online by
		// the kernel layer.
	default:
		// Forward compatibility: a future (or fuzzed) producer may emit
		// kinds this build does not know. Skip and count them.
		db.UnknownKindEvents++
	}
	return nil
}

// define applies a definition event (a def-type, def-lock, def-func,
// def-ctx or def-stack, an allocation or a free) and appends what it
// accepted to the definition log. An event lenient mode drops is
// counted and not logged. It stays out of Add, which every access
// runs through.
func (db *DB) define(ev *trace.Event) error {
	var rec any
	switch ev.Kind {
	case trace.KindDefType:
		t := &DataType{
			ID: ev.TypeID, Name: ev.TypeName,
			Members: append([]trace.MemberDef(nil), ev.Members...),
			def:     db.nDefs,
			at:      newMemberTable(ev.Members),
			dropped: make([]bool, len(ev.Members)),
			subbed:  db.subbed[ev.TypeName],
		}
		for i, m := range t.Members {
			t.dropped[i] = db.memberDropped(t.Name, m)
		}
		db.Types[t.ID] = t
		rec = t
	case trace.KindDefLock:
		li := &LockInfo{ID: ev.LockID, Name: ev.LockName, Class: ev.Class}
		if ev.OwnerAddr != 0 {
			if owner := db.resolve(ev.OwnerAddr); owner != nil {
				li.OwnerID = owner.ID
				li.OwnerType = owner.Type.Name
			}
		}
		db.Locks[li.ID] = li
		rec = li
	case trace.KindDefFunc:
		f := &Func{ID: ev.FuncID, File: ev.File, Line: ev.Line, Name: ev.Func}
		db.Funcs[f.ID] = f
		rec = f
	case trace.KindDefCtx:
		c := &CtxInfo{ID: ev.CtxID, Kind: ev.CtxKind, Name: ev.CtxName}
		db.Ctxs[c.ID] = c
		rec = c
	case trace.KindDefStack:
		s := &stackDef{id: ev.StackID, frames: append([]uint32(nil), ev.StackFuncs...)}
		db.Stacks[s.id] = s.frames
		rec = s
	case trace.KindAlloc:
		ty, ok := db.Types[ev.TypeID]
		if !ok {
			if db.lenient {
				db.DroppedAllocs++
				return nil
			}
			return fmt.Errorf("db: alloc %d references unknown type %d", ev.AllocID, ev.TypeID)
		}
		a := &Allocation{
			ID: ev.AllocID, Type: ty, Subclass: ev.Subclass,
			Addr: ev.Addr, Size: ev.Size,
		}
		a.row = db.row(rowKey{ty.ID, a.subclass()})
		if prev := db.Allocs[a.ID]; prev != nil {
			a.pend = prev.pend
		} else {
			a.pend = &pendSet{}
		}
		a.pend.live = true
		db.Allocs[a.ID] = a
		db.addrs.Insert(a.Addr, a.Size, a)
		rec = a
	case trace.KindFree:
		a := db.Allocs[ev.AllocID]
		if a == nil {
			if db.lenient {
				db.DroppedFrees++
				return nil
			}
			return fmt.Errorf("db: free of unknown allocation %d", ev.AllocID)
		}
		db.addrs.Remove(a.Addr, a.Size, a)
		a.pend.live = false
		if a.pend.n == 0 {
			a.pend.heads = nil
		}
		rec = freed{a}
	}
	db.logDef(rec)
	return nil
}

// Flush commits all pending folded observations. Call once after the
// last event: a transaction a truncated trace left open is finalized
// here and counted in OpenAtEOF. Contexts flush in ascending ID order
// so lock-key interning (and with it every KeyID-derived signature) is
// deterministic regardless of map iteration.
func (db *DB) Flush() {
	for _, id := range sortedCtxIDs(db.ctxState) {
		cs := db.ctxState[id]
		if len(cs.order) > 0 {
			db.OpenAtEOF++
		}
		db.flushCtx(cs)
	}
}

// sortedCtxIDs returns the context IDs of state in ascending order.
func sortedCtxIDs(state map[uint32]*ctxState) []uint32 {
	ids := make([]uint32, 0, len(state))
	for id := range state {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// DroppedEvents sums everything a lenient import skipped rather than
// misattributed.
func (db *DB) DroppedEvents() uint64 {
	return db.UnknownKindEvents + db.DroppedAllocs + db.DroppedFrees
}

// DegradedSummary renders the degraded-mode counters for human
// consumption; it returns "" for a perfectly clean import.
func (db *DB) DegradedSummary() string {
	if len(db.Corruptions) == 0 && db.DroppedEvents() == 0 && db.UnknownLockOps == 0 {
		return ""
	}
	return fmt.Sprintf(
		"recovered from %d trace corruption(s), %d bytes skipped; "+
			"dropped %d unknown-kind event(s), %d alloc(s) of undefined types, %d free(s) of undefined allocations; "+
			"%d acquire(s) of undefined locks; %d transaction(s) finalized at EOF",
		len(db.Corruptions), db.BytesSkipped,
		db.UnknownKindEvents, db.DroppedAllocs, db.DroppedFrees,
		db.UnknownLockOps, db.OpenAtEOF)
}

func (db *DB) ctx(id uint32) *ctxState {
	cs := db.ctxState[id]
	if cs == nil {
		cs = &ctxState{}
		db.ctxState[id] = cs
	}
	return cs
}

// resolve maps an address to the live allocation containing it.
func (db *DB) resolve(addr uint64) *Allocation {
	a, _ := db.addrs.Lookup(addr)
	return a
}

// row returns the index of the group row of k, adding the row on first
// use.
func (db *DB) row(k rowKey) int32 {
	r, ok := db.rowOf[k]
	if !ok {
		r = int32(len(db.rows))
		db.rows = append(db.rows, nil)
		db.rowOf[k] = r
	}
	return r
}

// place returns where the (member, write) group of row r is kept,
// growing the row to hold at least members members: a type redefined
// with more members keeps its rows.
func (db *DB) place(r int32, member int, write bool, members int) **ObsGroup {
	i := 2 * member
	if write {
		i++
	}
	if i >= len(db.rows[r]) {
		db.rows[r] = append(db.rows[r], make([]*ObsGroup, max(i+1, 2*members)-len(db.rows[r]))...)
	}
	return &db.rows[r][i]
}

// stackBlacklisted reports whether any frame of the access's stack is
// black-listed. An access without an interned stack (stack 0) is also
// black-listed by its innermost function, so its answer is not
// memoized; interned stacks are memoized per stack ID.
func (db *DB) stackBlacklisted(stackID uint32, innermost uint32) bool {
	if stackID == 0 {
		return db.funcBlacklisted(innermost) || db.framesBlacklisted(db.Stacks[0])
	}
	if v, ok := db.stackBlMemo[stackID]; ok {
		return v > 0
	}
	bl := db.framesBlacklisted(db.Stacks[stackID])
	v := int8(-1)
	if bl {
		v = 1
	}
	db.stackBlMemo[stackID] = v
	return bl
}

func (db *DB) framesBlacklisted(frames []uint32) bool {
	for _, fid := range frames {
		if db.funcBlacklisted(fid) {
			return true
		}
	}
	return false
}

func (db *DB) funcBlacklisted(fid uint32) bool {
	f := db.Funcs[fid]
	return f != nil && db.blFuncs[f.Name]
}

func (db *DB) access(ev *trace.Event) {
	a := db.resolve(ev.Addr)
	if a == nil {
		db.UnresolvedAddrs++
		db.FilteredAccesses++
		return
	}
	mi := a.Type.at.lookup(uint32(ev.Addr - a.Addr))
	if mi < 0 {
		db.UnresolvedAddrs++
		db.FilteredAccesses++
		return
	}
	if a.Type.dropped[mi] || db.stackBlacklisted(ev.StackID, ev.FuncID) {
		db.FilteredAccesses++
		return
	}

	cs := db.ctx(ev.Ctx)
	po := a.pend.find(cs, mi)
	if po == nil {
		po = db.newPend(a, mi, cs)
		a.pend.add(po, len(a.Type.Members))
		cs.order = append(cs.order, po)
	}
	actx := AccessCtx{FuncID: ev.FuncID, StackID: ev.StackID}
	if ev.Kind == trace.KindWrite {
		po.writes++
		po.writeCtxs = bumpCtx(po.writeCtxs, actx)
	} else {
		po.reads++
		po.readCtxs = bumpCtx(po.readCtxs, actx)
	}
}

// newPend returns an empty pending observation of cs on member mi of
// a, recycled from an earlier transaction when one is free.
func (db *DB) newPend(a *Allocation, mi int, cs *ctxState) *pendObs {
	n := len(db.free)
	if n == 0 {
		return &pendObs{alloc: a, member: mi, cs: cs}
	}
	po := db.free[n-1]
	db.free = db.free[:n-1]
	*po = pendObs{alloc: a, member: mi, cs: cs, readCtxs: po.readCtxs[:0], writeCtxs: po.writeCtxs[:0]}
	return po
}

// flushCtx commits the pending folded observations of one context and
// ends its transaction. It is called whenever the context's held-lock
// set changes (which ends the current transaction) and at end of trace.
func (db *DB) flushCtx(cs *ctxState) {
	if len(cs.order) == 0 {
		return
	}
	db.fold(cs)
	for _, po := range cs.order {
		po.alloc.pend.remove(po)
	}
	db.free = append(db.free, cs.order...)
	cs.order = cs.order[:0]
}

// fold commits the open transaction of cs into db without changing
// the pending observations, so Flush and Seal share it. Observations
// commit in (allocation, member) order: commit interns lock keys, and a
// fixed order keeps KeyID assignment — and everything downstream that
// sorts by sequence signature — deterministic. Sorting cs.order in
// place is harmless: arrival order carries no meaning.
func (db *DB) fold(cs *ctxState) {
	db.Transactions++
	slices.SortFunc(cs.order, func(x, y *pendObs) int {
		if c := cmp.Compare(x.alloc.ID, y.alloc.ID); c != 0 {
			return c
		}
		return cmp.Compare(x.member, y.member)
	})
	for _, po := range cs.order {
		db.commitObs(cs.held, po)
	}
}

// commitObs folds one pending observation into the store under the
// given held-lock list.
func (db *DB) commitObs(held []heldLock, po *pendObs) {
	seq := db.seqFor(held, po.alloc)
	if db.noWoR {
		// Ablation mode: keep reads and writes as separate
		// observations.
		if po.reads > 0 {
			db.commit(po.alloc, po.member, false, seq, po.reads, po.readCtxs, nil)
		}
		if po.writes > 0 {
			db.commit(po.alloc, po.member, true, seq, po.writes, po.writeCtxs, nil)
		}
		return
	}
	// Write-over-read: a transaction containing both treats the
	// folded observation as a write (Sec. 4.2).
	db.commit(po.alloc, po.member, po.writes > 0, seq, po.reads+po.writes, po.writeCtxs, po.readCtxs)
}

// seqFor maps the held-lock list to lock keys relative to the accessed
// allocation, collapsing duplicate keys (keeping first acquisition).
// Held lists are short, so dedup is a linear scan rather than a map.
// The result lives in db's scratch until the next call.
//
// Keys are interned on first use, exactly as without the held-lock
// memo, so KeyID order is unchanged. A sealed view folding the live
// store's open transactions reads the memo (every memoized ID was
// interned before the seal) but never writes it: an ID the view interns
// is private to the view.
func (db *DB) seqFor(held []heldLock, a *Allocation) LockSeq {
	if len(held) == 0 {
		return nil
	}
	seq := db.seqBuf[:0]
outer:
	for i := range held {
		h := &held[i]
		eo := 0
		if h.lock.OwnerID != 0 && h.lock.OwnerID != a.ID {
			eo = 1
		}
		id := h.ids[eo]
		if id == noKey {
			id = db.intern(db.keyFor(h.lock, a))
			if !db.sealed {
				h.ids[eo] = id
			}
		}
		for _, s := range seq {
			if s == id {
				continue outer
			}
		}
		seq = append(seq, id)
	}
	db.seqBuf = seq
	return seq
}

func (db *DB) keyFor(li *LockInfo, a *Allocation) LockKey {
	switch {
	case li.OwnerID == 0:
		return LockKey{Kind: Global, Class: li.Class, Name: li.Name}
	case li.OwnerID == a.ID:
		return LockKey{Kind: ES, Class: li.Class, Name: li.Name, OwnerType: li.OwnerType}
	default:
		return LockKey{Kind: EO, Class: li.Class, Name: li.Name, OwnerType: li.OwnerType}
	}
}

func (db *DB) intern(k LockKey) KeyID {
	if id, ok := db.keyIDs[k]; ok {
		return id
	}
	id := KeyID(len(db.keys))
	db.keys = append(db.keys, k)
	db.keyIDs[k] = id
	return id
}

// Key returns the interned LockKey for a KeyID.
func (db *DB) Key(id KeyID) LockKey { return db.keys[id] }

// KeyByString finds an interned key by its rendered form.
func (db *DB) KeyByString(s string) (KeyID, bool) {
	for i, k := range db.keys {
		if k.String() == s {
			return KeyID(i), true
		}
	}
	return 0, false
}

// InternKey interns a key. The checker never interns one: it looks a
// documented lock up with KeyByString, and a lock never observed makes
// the rule incorrect. core's tests build lock sequences with it.
func (db *DB) InternKey(k LockKey) KeyID { return db.intern(k) }

// SeqString renders a lock sequence in the paper's arrow notation;
// the empty sequence renders as "no locks". Report and documentation
// generation call this once per hypothesis, so the whole sequence is
// rendered into a single exactly sized allocation.
func (db *DB) SeqString(seq LockSeq) string {
	if len(seq) == 0 {
		return "no locks"
	}
	n := len(" -> ") * (len(seq) - 1)
	for _, id := range seq {
		n += db.Key(id).renderLen()
	}
	var b strings.Builder
	b.Grow(n)
	for i, id := range seq {
		if i > 0 {
			b.WriteString(" -> ")
		}
		db.Key(id).appendString(&b)
	}
	return b.String()
}

func joinArrow(parts []string) string {
	out := parts[0]
	for _, p := range parts[1:] {
		out += " -> " + p
	}
	return out
}

// commit merges one folded observation into its group: seq is the
// held-lock sequence (db's scratch; cloned only into a new SeqObs), and
// both context lists add their event counts.
func (db *DB) commit(a *Allocation, member int, write bool, seq LockSeq, events uint64, ctxs, more []ctxCount) {
	p := db.place(a.row, member, write, len(a.Type.Members))
	g := *p
	if g == nil {
		gk := GroupKey{TypeID: a.Type.ID, Subclass: a.subclass(), Member: member, Write: write}
		g = &ObsGroup{Key: gk, Type: a.Type, Seqs: make(map[string]*SeqObs)}
		*p = g
		db.nGroups++
	} else if g.shared {
		// Copy-on-write: the group is visible through a sealed view, so
		// merge into a private clone and leave the view's copy frozen.
		g = g.clone()
		*p = g
	}
	g.Gen = db.gen
	db.sigBuf = seq.appendSignature(db.sigBuf[:0])
	so := g.Seqs[string(db.sigBuf)]
	if so == nil {
		so = &SeqObs{Contexts: make(map[AccessCtx]uint64)}
		if len(seq) > 0 {
			so.Seq = slices.Clone(seq)
		}
		g.Seqs[string(db.sigBuf)] = so
	}
	so.Count++
	so.Events += events
	for _, c := range ctxs {
		so.Contexts[c.ctx] += c.n
	}
	for _, c := range more {
		so.Contexts[c.ctx] += c.n
	}
	g.Total++
	g.EventSum += events
}

// groups yields every observation group, row by row.
func (db *DB) groups(yield func(*ObsGroup) bool) {
	for _, row := range db.rows {
		for _, g := range row {
			if g != nil && !yield(g) {
				return
			}
		}
	}
}

// GroupCount returns the number of observation groups, without the
// allocation and sort of Groups.
func (db *DB) GroupCount() int { return db.nGroups }

// Groups returns all observation groups in a stable order (by type name,
// subclass, member index, then writes before reads). A sealed view's
// group set never changes, so it sorts once and hands every caller the
// same slice: treat the result as read-only.
func (db *DB) Groups() []*ObsGroup {
	if !db.sealed {
		return db.sortGroups()
	}
	db.sortOnce.Do(func() { db.sorted = db.sortGroups() })
	return db.sorted
}

func (db *DB) sortGroups() []*ObsGroup {
	out := make([]*ObsGroup, 0, db.nGroups)
	for g := range db.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Type.Name != b.Type.Name {
			return a.Type.Name < b.Type.Name
		}
		if a.Key.Subclass != b.Key.Subclass {
			return a.Key.Subclass < b.Key.Subclass
		}
		if a.Key.Member != b.Key.Member {
			return a.Key.Member < b.Key.Member
		}
		return a.Key.Write && !b.Key.Write
	})
	return out
}

// Group looks up one observation group.
func (db *DB) Group(typeName, subclass, member string, write bool) (*ObsGroup, bool) {
	for g := range db.groups {
		if g.Type.Name == typeName && g.Key.Subclass == subclass &&
			g.MemberName() == member && g.Key.Write == write {
			db.hydrateForLookup(g)
			return g, true
		}
	}
	return nil, false
}

// memberAccess names the groups of one member access across the
// subclasses of its type.
type memberAccess struct {
	typeName, member string
	write            bool
}

// GroupIndex resolves groups like Group, but with subclasses merged
// (see Merged), from a map of the store's groups keyed by (type name,
// member, access), built in one pass that neither sorts nor hydrates
// them. It reflects the groups at the time it was built: index a sealed
// view, whose group set never changes.
type GroupIndex struct {
	db     *DB
	groups map[memberAccess][]*ObsGroup
}

// IndexGroups builds a GroupIndex over the store's observation groups.
func (db *DB) IndexGroups() *GroupIndex {
	ix := &GroupIndex{db: db, groups: make(map[memberAccess][]*ObsGroup, db.nGroups)}
	for g := range db.groups {
		k := memberAccess{g.Type.Name, g.MemberName(), g.Key.Write}
		ix.groups[k] = append(ix.groups[k], g)
	}
	return ix
}

// Merged looks up one group like Group, but when subclass is empty and
// the type is subclassed it merges the observations of every subclass
// into one synthetic group. The locking-rule checker validates
// documentation written for the plain type ("struct inode") against all
// subclass observations this way.
func (ix *GroupIndex) Merged(typeName, subclass, member string, write bool) (*ObsGroup, bool) {
	return ix.db.lookupMerged(ix.groups[memberAccess{typeName, member, write}], subclass)
}

// lookupMerged answers a lookup among the groups of one member access: the
// group of exactly subclass if there is one, otherwise, for an empty
// subclass, the merge of all of them. Only the groups it returns or
// merges are hydrated.
func (db *DB) lookupMerged(same []*ObsGroup, subclass string) (*ObsGroup, bool) {
	for _, g := range same {
		if g.Key.Subclass == subclass {
			db.hydrateForLookup(g)
			return g, true
		}
	}
	if subclass != "" || len(same) == 0 {
		return nil, false
	}
	first := same[0]
	merged := &ObsGroup{
		Key:  GroupKey{TypeID: first.Key.TypeID, Member: first.Key.Member, Write: first.Key.Write},
		Type: first.Type, Seqs: make(map[string]*SeqObs),
	}
	for _, g := range same {
		db.hydrateForLookup(g)
		for sig, so := range g.Seqs {
			m := merged.Seqs[sig]
			if m == nil {
				m = &SeqObs{Seq: so.Seq, Contexts: make(map[AccessCtx]uint64)}
				merged.Seqs[sig] = m
			}
			m.Count += so.Count
			m.Events += so.Events
			for c, n := range so.Contexts {
				m.Contexts[c] += n
			}
		}
		merged.Total += g.Total
		merged.EventSum += g.EventSum
	}
	return merged, true
}

// TypeLabels returns the distinct type labels (type or type:subclass)
// present in the observation groups, sorted.
func (db *DB) TypeLabels() []string {
	set := make(map[string]bool)
	for g := range db.groups {
		set[g.TypeLabel()] = true
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// BlacklistedMembers counts the members of t that the import filters
// drop: atomic members, lock members, and explicitly black-listed ones
// (column #Bl of the paper's Tab. 6).
func (db *DB) BlacklistedMembers(t *DataType) int {
	n := 0
	for _, m := range t.Members {
		if db.memberDropped(t.Name, m) {
			n++
		}
	}
	return n
}

// memberDropped reports whether the member filters drop accesses to
// member m of type typeName.
func (db *DB) memberDropped(typeName string, m trace.MemberDef) bool {
	return m.Atomic || m.IsLock || db.blMembs[typeName][m.Name]
}

// FuncLocation renders "file:line" for a function ID.
func (db *DB) FuncLocation(id uint32) string {
	f := db.Funcs[id]
	if f == nil {
		return "?"
	}
	return fmt.Sprintf("%s:%d", f.File, f.Line)
}

// StackTrace renders the interned stack as a call chain.
func (db *DB) StackTrace(stackID uint32) string {
	frames := db.Stacks[stackID]
	parts := make([]string, 0, len(frames))
	for _, fid := range frames {
		if f := db.Funcs[fid]; f != nil {
			parts = append(parts, f.Name)
		}
	}
	if len(parts) == 0 {
		return "(no stack)"
	}
	return joinArrow(parts)
}
