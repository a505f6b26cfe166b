package db

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"lockdoc/internal/trace"
)

// feeder builds a synthetic event stream with minimal ceremony.
type feeder struct {
	t   *testing.T
	db  *DB
	seq uint64
}

func newFeeder(t *testing.T, cfg Config) *feeder {
	return &feeder{t: t, db: New(cfg)}
}

func (f *feeder) add(ev trace.Event) {
	f.seq++
	ev.Seq = f.seq
	ev.TS = f.seq
	if err := f.db.Add(&ev); err != nil {
		f.t.Fatalf("Add(%v): %v", ev.Kind, err)
	}
}

func (f *feeder) defType(id uint32, name string, members ...trace.MemberDef) {
	f.add(trace.Event{Kind: trace.KindDefType, TypeID: id, TypeName: name, Members: members})
}

func (f *feeder) defLock(id uint64, name string, class trace.LockClass, lockAddr, ownerAddr uint64) {
	f.add(trace.Event{Kind: trace.KindDefLock, LockID: id, LockName: name, Class: class,
		LockAddr: lockAddr, OwnerAddr: ownerAddr})
}

func (f *feeder) defFunc(id uint32, file string, line uint32, name string) {
	f.add(trace.Event{Kind: trace.KindDefFunc, FuncID: id, File: file, Line: line, Func: name})
}

func (f *feeder) defStack(id uint32, funcs ...uint32) {
	f.add(trace.Event{Kind: trace.KindDefStack, StackID: id, StackFuncs: funcs})
}

func (f *feeder) alloc(ctx uint32, id uint64, typeID uint32, addr uint64, size uint32, sub string) {
	f.add(trace.Event{Kind: trace.KindAlloc, Ctx: ctx, AllocID: id, TypeID: typeID,
		Addr: addr, Size: size, Subclass: sub})
}

func (f *feeder) free(ctx uint32, id uint64, addr uint64) {
	f.add(trace.Event{Kind: trace.KindFree, Ctx: ctx, AllocID: id, Addr: addr})
}

func (f *feeder) acquire(ctx uint32, lockID uint64) {
	f.add(trace.Event{Kind: trace.KindAcquire, Ctx: ctx, LockID: lockID})
}

func (f *feeder) release(ctx uint32, lockID uint64) {
	f.add(trace.Event{Kind: trace.KindRelease, Ctx: ctx, LockID: lockID})
}

func (f *feeder) read(ctx uint32, addr uint64, fn, stack uint32) {
	f.add(trace.Event{Kind: trace.KindRead, Ctx: ctx, Addr: addr, AccessSize: 8, FuncID: fn, StackID: stack})
}

func (f *feeder) write(ctx uint32, addr uint64, fn, stack uint32) {
	f.add(trace.Event{Kind: trace.KindWrite, Ctx: ctx, Addr: addr, AccessSize: 8, FuncID: fn, StackID: stack})
}

// clockFixture replays the paper's Sec. 4 clock-counter example:
// 1000 iterations of the correct code plus one faulty execution that
// writes `minutes` holding only sec_lock.
func clockFixture(t *testing.T) *DB {
	f := newFeeder(t, Config{})
	const (
		typeClock  = 1
		lockSec    = 1
		lockMin    = 2
		clockAddr  = 0x1000_0000
		offSeconds = 0
		offMinutes = 8
		fnTick     = 1
		stackTick  = 1
		iterations = 1000
	)
	f.defType(typeClock, "clock",
		trace.MemberDef{Name: "seconds", Offset: 0, Size: 8},
		trace.MemberDef{Name: "minutes", Offset: 8, Size: 8},
	)
	f.defLock(lockSec, "sec_lock", trace.LockSpin, 0x100, 0)
	f.defLock(lockMin, "min_lock", trace.LockSpin, 0x200, 0)
	f.defFunc(fnTick, "clock.c", 10, "tick")
	f.defStack(stackTick, fnTick)
	f.alloc(1, 1, typeClock, clockAddr, 16, "")

	seconds := 0
	iter := func(faulty, rollover bool) {
		f.acquire(1, lockSec) // transaction a
		f.read(1, clockAddr+offSeconds, fnTick, stackTick)
		f.write(1, clockAddr+offSeconds, fnTick, stackTick)
		seconds++
		if seconds == 60 || rollover {
			if !faulty {
				f.acquire(1, lockMin) // transaction b
			}
			f.write(1, clockAddr+offSeconds, fnTick, stackTick)
			f.read(1, clockAddr+offMinutes, fnTick, stackTick)
			f.write(1, clockAddr+offMinutes, fnTick, stackTick)
			seconds = 0
			if !faulty {
				f.release(1, lockMin)
			}
		}
		f.release(1, lockSec)
	}
	for i := 0; i < iterations; i++ {
		iter(false, false) // 16 correct rollovers at i = 59, 119, ...
	}
	// One faulty execution of the similar function that forgot min_lock
	// on the rollover path.
	iter(true, true)
	f.db.Flush()
	return f.db
}

func TestClockExampleGroups(t *testing.T) {
	d := clockFixture(t)

	minW, ok := d.Group("clock", "", "minutes", true)
	if !ok {
		t.Fatal("no minutes/write group")
	}
	// The paper's Tab. 2: 17 transactions write minutes (16 correct, 1
	// faulty). Our replay rolls over 1000/60 = 16 times + 1 faulty = 17.
	if minW.Total != 17 {
		t.Errorf("minutes/write Total = %d, want 17", minW.Total)
	}
	// The WoR rule must leave no minutes/read observations: every
	// transaction that reads minutes also writes it.
	if g, ok := d.Group("clock", "", "minutes", false); ok && g.Total > 0 {
		t.Errorf("minutes/read Total = %d, want 0 (write-over-read)", g.Total)
	}

	// Observed sequences: 16x [sec,min], 1x [sec].
	var with2, with1 uint64
	for _, so := range minW.Seqs {
		switch len(so.Seq) {
		case 2:
			with2 += so.Count
		case 1:
			with1 += so.Count
		default:
			t.Errorf("unexpected seq length %d", len(so.Seq))
		}
	}
	if with2 != 16 || with1 != 1 {
		t.Errorf("seq counts = %d/%d, want 16 with both locks, 1 with sec_lock only", with2, with1)
	}

	// seconds is written in every one of the ~1017 transactions.
	secW, ok := d.Group("clock", "", "seconds", true)
	if !ok {
		t.Fatal("no seconds/write group")
	}
	if secW.Total < 1000 {
		t.Errorf("seconds/write Total = %d, want >= 1000", secW.Total)
	}
	// seconds is never observed as read-only in a transaction (WoR).
	if g, ok := d.Group("clock", "", "seconds", false); ok && g.Total > 0 {
		t.Errorf("seconds/read Total = %d, want 0", g.Total)
	}
	if n := d.GroupCount(); n != len(d.Groups()) {
		t.Errorf("GroupCount = %d, want len(Groups()) = %d", n, len(d.Groups()))
	}
}

func TestTransactionBoundaries(t *testing.T) {
	f := newFeeder(t, Config{})
	f.defType(1, "obj", trace.MemberDef{Name: "x", Offset: 0, Size: 8})
	f.defLock(1, "l", trace.LockSpin, 0x100, 0)
	f.defFunc(1, "a.c", 1, "f")
	f.defStack(1, 1)
	f.alloc(1, 1, 1, 0x1000, 8, "")

	// Three reads in one transaction fold to one observation.
	f.acquire(1, 1)
	f.read(1, 0x1000, 1, 1)
	f.read(1, 0x1000, 1, 1)
	f.read(1, 0x1000, 1, 1)
	f.release(1, 1)
	// One lock-free read afterwards is a separate (empty-seq) observation.
	f.read(1, 0x1000, 1, 1)
	f.db.Flush()

	g, ok := f.db.Group("obj", "", "x", false)
	if !ok {
		t.Fatal("no read group")
	}
	if g.Total != 2 {
		t.Fatalf("Total = %d, want 2 folded observations", g.Total)
	}
	if g.EventSum != 4 {
		t.Errorf("EventSum = %d, want 4 raw events", g.EventSum)
	}
	var lockedCount, freeCount uint64
	for _, so := range g.Seqs {
		if len(so.Seq) == 1 {
			lockedCount = so.Count
			if so.Events != 3 {
				t.Errorf("locked obs Events = %d, want 3", so.Events)
			}
		} else if len(so.Seq) == 0 {
			freeCount = so.Count
		}
	}
	if lockedCount != 1 || freeCount != 1 {
		t.Errorf("locked/free counts = %d/%d, want 1/1", lockedCount, freeCount)
	}
}

func TestNestedTransactionSplits(t *testing.T) {
	f := newFeeder(t, Config{})
	f.defType(1, "obj", trace.MemberDef{Name: "x", Offset: 0, Size: 8})
	f.defLock(1, "a", trace.LockSpin, 0x100, 0)
	f.defLock(2, "b", trace.LockSpin, 0x108, 0)
	f.defFunc(1, "a.c", 1, "f")
	f.defStack(1, 1)
	f.alloc(1, 1, 1, 0x1000, 8, "")

	f.acquire(1, 1)
	f.read(1, 0x1000, 1, 1) // txn 1: [a]
	f.acquire(1, 2)
	f.read(1, 0x1000, 1, 1) // txn 2: [a,b]
	f.release(1, 2)
	f.read(1, 0x1000, 1, 1) // txn 3: [a] again (new instance)
	f.release(1, 1)
	f.db.Flush()

	g, _ := f.db.Group("obj", "", "x", false)
	if g.Total != 3 {
		t.Fatalf("Total = %d, want 3 transactions", g.Total)
	}
	var one, two uint64
	for _, so := range g.Seqs {
		switch len(so.Seq) {
		case 1:
			one += so.Count
		case 2:
			two += so.Count
		}
	}
	if one != 2 || two != 1 {
		t.Errorf("counts = %d under [a], %d under [a,b]; want 2/1", one, two)
	}
}

func TestLockKeyMapping(t *testing.T) {
	f := newFeeder(t, Config{})
	f.defType(1, "inode",
		trace.MemberDef{Name: "i_state", Offset: 0, Size: 8},
		trace.MemberDef{Name: "i_lock", Offset: 8, Size: 8, IsLock: true},
	)
	f.defFunc(1, "fs/inode.c", 1, "f")
	f.defStack(1, 1)
	// Two inodes, each with an embedded i_lock, plus one global lock.
	f.alloc(1, 1, 1, 0x1000, 16, "ext4")
	f.alloc(1, 2, 1, 0x2000, 16, "ext4")
	f.defLock(1, "i_lock", trace.LockSpin, 0x1008, 0x1000)
	f.defLock(2, "i_lock", trace.LockSpin, 0x2008, 0x2000)
	f.defLock(3, "inode_hash_lock", trace.LockSpin, 0x100, 0)

	// Access inode 1 holding: global, own i_lock, other inode's i_lock.
	f.acquire(1, 3)
	f.acquire(1, 1)
	f.acquire(1, 2)
	f.write(1, 0x1000, 1, 1)
	f.release(1, 2)
	f.release(1, 1)
	f.release(1, 3)
	f.db.Flush()

	g, ok := f.db.Group("inode", "", "i_state", true)
	if !ok {
		t.Fatal("no group")
	}
	if len(g.Seqs) != 1 {
		t.Fatalf("got %d sequences, want 1", len(g.Seqs))
	}
	for _, so := range g.Seqs {
		if len(so.Seq) != 3 {
			t.Fatalf("seq len = %d, want 3", len(so.Seq))
		}
		want := []string{
			"inode_hash_lock",
			"ES(i_lock in inode)",
			"EO(i_lock in inode)",
		}
		for i, id := range so.Seq {
			if got := f.db.Key(id).String(); got != want[i] {
				t.Errorf("key %d = %q, want %q", i, got, want[i])
			}
		}
		if f.db.SeqString(so.Seq) != "inode_hash_lock -> ES(i_lock in inode) -> EO(i_lock in inode)" {
			t.Errorf("SeqString = %q", f.db.SeqString(so.Seq))
		}
	}
}

func TestFilters(t *testing.T) {
	f := newFeeder(t, Config{
		FuncBlacklist:   []string{"inode_init_always"},
		MemberBlacklist: map[string][]string{"inode": {"i_private"}},
	})
	f.defType(1, "inode",
		trace.MemberDef{Name: "i_state", Offset: 0, Size: 8},
		trace.MemberDef{Name: "i_count", Offset: 8, Size: 8, Atomic: true},
		trace.MemberDef{Name: "i_lock", Offset: 16, Size: 8, IsLock: true},
		trace.MemberDef{Name: "i_private", Offset: 24, Size: 8},
	)
	f.defFunc(1, "fs/inode.c", 1, "inode_init_always")
	f.defFunc(2, "fs/inode.c", 50, "touch")
	f.defStack(1, 1)    // init context
	f.defStack(2, 2)    // normal context
	f.defStack(3, 2, 1) // init called from touch — still filtered
	f.alloc(1, 1, 1, 0x1000, 32, "")

	f.write(1, 0x1000, 1, 1) // filtered: init function
	f.write(1, 0x1000, 1, 3) // filtered: init on stack
	f.write(1, 0x1008, 2, 2) // filtered: atomic member
	f.write(1, 0x1010, 2, 2) // filtered: lock member
	f.write(1, 0x1018, 2, 2) // filtered: black-listed member
	f.write(1, 0x1000, 2, 2) // kept
	f.db.Flush()

	if f.db.RawAccesses != 6 {
		t.Errorf("RawAccesses = %d, want 6", f.db.RawAccesses)
	}
	if f.db.FilteredAccesses != 5 {
		t.Errorf("FilteredAccesses = %d, want 5", f.db.FilteredAccesses)
	}
	g, ok := f.db.Group("inode", "", "i_state", true)
	if !ok || g.Total != 1 {
		t.Fatalf("i_state group total = %v, want 1 observation", g)
	}
}

// TestFiltersStackZero pins that an access without an interned stack
// (stack 0) is black-listed by its own innermost function: a filtered
// stack-0 write from a black-listed function must not decide the next
// stack-0 write.
func TestFiltersStackZero(t *testing.T) {
	f := newFeeder(t, Config{FuncBlacklist: []string{"init"}})
	f.defType(1, "obj", trace.MemberDef{Name: "x", Offset: 0, Size: 8})
	f.defFunc(1, "a.c", 1, "init")
	f.defFunc(2, "a.c", 9, "f")
	f.alloc(1, 1, 1, 0x1000, 8, "")
	f.write(1, 0x1000, 1, 0) // filtered: from init
	f.write(1, 0x1000, 2, 0) // kept: from f
	f.db.Flush()

	if f.db.FilteredAccesses != 1 {
		t.Errorf("FilteredAccesses = %d, want 1", f.db.FilteredAccesses)
	}
	g, ok := f.db.Group("obj", "", "x", true)
	if !ok || g.Total != 1 {
		t.Fatalf("x group total = %v, want 1 observation", g)
	}
}

func TestSubclassing(t *testing.T) {
	f := newFeeder(t, Config{SubclassedTypes: []string{"inode"}})
	f.defType(1, "inode", trace.MemberDef{Name: "i_state", Offset: 0, Size: 8})
	f.defFunc(1, "a.c", 1, "f")
	f.defStack(1, 1)
	f.alloc(1, 1, 1, 0x1000, 8, "ext4")
	f.alloc(1, 2, 1, 0x2000, 8, "proc")
	f.write(1, 0x1000, 1, 1)
	f.write(1, 0x2000, 1, 1)
	f.db.Flush()

	if _, ok := f.db.Group("inode", "ext4", "i_state", true); !ok {
		t.Error("missing inode:ext4 group")
	}
	if _, ok := f.db.Group("inode", "proc", "i_state", true); !ok {
		t.Error("missing inode:proc group")
	}
	labels := f.db.TypeLabels()
	if len(labels) != 2 || labels[0] != "inode:ext4" || labels[1] != "inode:proc" {
		t.Errorf("TypeLabels = %v", labels)
	}
}

func TestAddressReuseAcrossLifetimes(t *testing.T) {
	f := newFeeder(t, Config{})
	f.defType(1, "a", trace.MemberDef{Name: "x", Offset: 0, Size: 8})
	f.defType(2, "b", trace.MemberDef{Name: "y", Offset: 0, Size: 8})
	f.defFunc(1, "a.c", 1, "f")
	f.defStack(1, 1)

	f.alloc(1, 1, 1, 0x1000, 8, "")
	f.write(1, 0x1000, 1, 1)
	f.free(1, 1, 0x1000)
	// Same address reused by a different type.
	f.alloc(1, 2, 2, 0x1000, 8, "")
	f.write(1, 0x1000, 1, 1)
	f.free(1, 2, 0x1000)
	// Access after free resolves nowhere.
	f.write(1, 0x1000, 1, 1)
	f.db.Flush()

	ga, _ := f.db.Group("a", "", "x", true)
	gb, _ := f.db.Group("b", "", "y", true)
	if ga.Total != 1 || gb.Total != 1 {
		t.Errorf("groups = %d/%d, want 1/1", ga.Total, gb.Total)
	}
	if f.db.UnresolvedAddrs != 1 {
		t.Errorf("UnresolvedAddrs = %d, want 1", f.db.UnresolvedAddrs)
	}
}

// TestAllocationOverlapResolution pins how a lenient import resolves
// addresses when allocations overlap, a case only damaged or fuzzed
// traces produce. Address resolution works on 8-byte slots, and the
// latest allocation to claim a slot owns it until it is freed.
func TestAllocationOverlapResolution(t *testing.T) {
	f := newFeeder(t, Config{Lenient: true})
	f.defType(1, "big",
		trace.MemberDef{Name: "a0", Offset: 0, Size: 8},
		trace.MemberDef{Name: "a1", Offset: 8, Size: 8},
		trace.MemberDef{Name: "a2", Offset: 16, Size: 8},
		trace.MemberDef{Name: "a3", Offset: 24, Size: 8},
	)
	f.defType(2, "small",
		trace.MemberDef{Name: "b0", Offset: 0, Size: 8},
		trace.MemberDef{Name: "b1", Offset: 8, Size: 8},
	)
	f.defLock(1, "l", trace.LockSpin, 0x100, 0)
	f.defFunc(1, "o.c", 1, "f")

	totals := func() map[string]uint64 {
		m := make(map[string]uint64)
		for _, g := range f.db.Seal().Groups() {
			m[g.Type.Name+"."+g.Type.Members[g.Key.Member].Name] = g.Total
		}
		return m
	}
	// resolves writes addr in a transaction of its own and names the
	// "type.member" group it was folded into, or "unresolved".
	resolves := func(addr uint64) string {
		t.Helper()
		was, unresolved := totals(), f.db.UnresolvedAddrs
		f.acquire(1, 1)
		f.write(1, addr, 1, 0)
		f.release(1, 1)
		var hit []string
		for k, n := range totals() {
			if n != was[k] {
				hit = append(hit, k)
			}
		}
		if f.db.UnresolvedAddrs != unresolved {
			hit = append(hit, "unresolved")
		}
		if len(hit) != 1 {
			t.Fatalf("write at %#x changed %v, want exactly one group or the unresolved count", addr, hit)
		}
		return hit[0]
	}
	check := func(step string, want map[uint64]string) {
		t.Helper()
		for _, addr := range []uint64{0x1000, 0x1008, 0x1010, 0x1018, 0x2000, 0x2004, 0x2008, 0x200c} {
			w, ok := want[addr]
			if !ok {
				w = "unresolved"
			}
			if got := resolves(addr); got != w {
				t.Errorf("%s: write at %#x resolves to %s, want %s", step, addr, got, w)
			}
		}
	}

	// (a) A newer allocation overlapping a live one takes over the
	// slots they share.
	f.alloc(1, 1, 1, 0x1000, 32, "")
	f.alloc(1, 2, 2, 0x1010, 16, "")
	check("overlap", map[uint64]string{
		0x1000: "big.a0", 0x1008: "big.a1", 0x1010: "small.b0", 0x1018: "small.b1",
	})
	// (b) Freeing the newer one unresolves the shared slots; they do not
	// return to the older allocation, whose other slots still resolve.
	f.free(1, 2, 0x1010)
	check("newer freed", map[uint64]string{0x1000: "big.a0", 0x1008: "big.a1"})
	// (c) Freeing the older one leaves nothing to resolve.
	f.free(1, 1, 0x1000)
	check("both freed", nil)
	// (d) An allocation whose base is not 8-aligned claims slots that no
	// access looks up, since resolution rounds the address down to 8.
	f.alloc(1, 3, 2, 0x2004, 16, "")
	check("unaligned", nil)
}

func TestCrossContextIndependence(t *testing.T) {
	f := newFeeder(t, Config{})
	f.defType(1, "obj", trace.MemberDef{Name: "x", Offset: 0, Size: 8})
	f.defLock(1, "l", trace.LockSpin, 0x100, 0)
	f.defFunc(1, "a.c", 1, "f")
	f.defStack(1, 1)
	f.alloc(1, 1, 1, 0x1000, 8, "")

	// Context 1 holds the lock; context 2 accesses without it.
	f.acquire(1, 1)
	f.write(2, 0x1000, 1, 1)
	f.release(1, 1)
	f.db.Flush()

	g, _ := f.db.Group("obj", "", "x", true)
	for _, so := range g.Seqs {
		if len(so.Seq) != 0 {
			t.Errorf("ctx 2 observation inherited locks from ctx 1: %v", f.db.SeqString(so.Seq))
		}
	}
}

func TestViolationContextsTracked(t *testing.T) {
	f := newFeeder(t, Config{})
	f.defType(1, "obj", trace.MemberDef{Name: "x", Offset: 0, Size: 8})
	f.defFunc(1, "a.c", 10, "writer_a")
	f.defFunc(2, "b.c", 20, "writer_b")
	f.defStack(1, 1)
	f.defStack(2, 2)
	f.alloc(1, 1, 1, 0x1000, 8, "")
	f.write(1, 0x1000, 1, 1)
	f.write(1, 0x1000, 1, 1)
	f.write(2, 0x1000, 2, 2)
	f.db.Flush()

	g, _ := f.db.Group("obj", "", "x", true)
	var contexts int
	var events uint64
	for _, so := range g.Seqs {
		contexts += len(so.Contexts)
		for _, n := range so.Contexts {
			events += n
		}
	}
	if contexts != 2 {
		t.Errorf("contexts = %d, want 2 distinct", contexts)
	}
	if events != 3 {
		t.Errorf("events = %d, want 3", events)
	}
}

func TestSeqStringEmpty(t *testing.T) {
	d := New(Config{})
	if got := d.SeqString(nil); got != "no locks" {
		t.Errorf("SeqString(nil) = %q", got)
	}
}

// groupContexts returns every context count of one group, over all of
// its sequences.
func groupContexts(t *testing.T, d *DB, member string, write bool) map[AccessCtx]uint64 {
	t.Helper()
	g, ok := d.Group("obj", "", member, write)
	if !ok {
		t.Fatalf("no %s group (write=%v)", member, write)
	}
	out := make(map[AccessCtx]uint64)
	for _, so := range g.Seqs {
		for c, n := range so.Contexts {
			out[c] += n
		}
	}
	return out
}

// TestRecycledPendingObservation: a flushed transaction's pending
// observation is reused by the next one, and must not carry its old
// counts along. T1 reads m from context X and ends at a lock
// acquisition; T2 then writes m from Y. The write group (write-over-
// read merges a transaction's reads into it) must see Y alone, whether
// it is sealed mid-transaction or flushed at the end.
func TestRecycledPendingObservation(t *testing.T) {
	f := newFeeder(t, Config{})
	f.defType(1, "obj", trace.MemberDef{Name: "m", Offset: 0, Size: 8})
	f.defLock(1, "l", trace.LockSpin, 0x100, 0)
	f.alloc(1, 1, 1, 0x1000, 8, "")
	x := AccessCtx{FuncID: 1, StackID: 1}
	y := AccessCtx{FuncID: 2, StackID: 2}

	f.read(1, 0x1000, x.FuncID, x.StackID) // T1
	f.acquire(1, 1)
	f.db.Seal()                             // between T1 and T2
	f.write(1, 0x1000, y.FuncID, y.StackID) // T2
	mid := f.db.Seal()
	f.release(1, 1)
	f.db.Flush()

	for name, d := range map[string]*DB{"mid-T2 view": mid, "flushed": f.db} {
		if got := groupContexts(t, d, "m", true); len(got) != 1 || got[y] != 1 {
			t.Errorf("%s: write group contexts = %v, want only %v once", name, got, y)
		}
		if got := groupContexts(t, d, "m", false); len(got) != 1 || got[x] != 1 {
			t.Errorf("%s: read group contexts = %v, want only %v once", name, got, x)
		}
		g, _ := d.Group("obj", "", "m", true)
		if g.Total != 1 || g.EventSum != 1 {
			t.Errorf("%s: write group total %d events %d, want 1 and 1", name, g.Total, g.EventSum)
		}
	}
}

// TestHeldKeyMemoSplitsESAndEO: one held embedded lock maps to ES for
// accesses to its owner and to EO for accesses to any other object of
// the type, even within one transaction. The held lock's memoized key
// ID must keep the two apart, and the mid-transaction seal, whose key
// IDs are private to the view, must not write it.
func TestHeldKeyMemoSplitsESAndEO(t *testing.T) {
	f := newFeeder(t, Config{})
	f.defType(1, "obj",
		trace.MemberDef{Name: "m", Offset: 0, Size: 8},
		trace.MemberDef{Name: "lock", Offset: 8, Size: 8, IsLock: true})
	f.alloc(1, 1, 1, 0x1000, 16, "")
	f.alloc(1, 2, 1, 0x2000, 16, "")
	f.defLock(1, "lock", trace.LockSpin, 0x1008, 0x1000)

	f.acquire(1, 1)
	f.write(1, 0x1000, 1, 0) // the lock's owner
	f.write(1, 0x2000, 1, 0) // another obj
	mid := f.db.Seal()
	f.release(1, 1)
	f.db.Flush()

	for name, d := range map[string]*DB{"mid-transaction view": mid, "flushed": f.db} {
		g, ok := d.Group("obj", "", "m", true)
		if !ok {
			t.Fatalf("%s: no write group", name)
		}
		got := make(map[string]uint64)
		for _, so := range g.Seqs {
			got[d.SeqString(so.Seq)] += so.Count
		}
		want := map[string]uint64{"ES(lock in obj)": 1, "EO(lock in obj)": 1}
		if len(got) != len(want) || got["ES(lock in obj)"] != 1 || got["EO(lock in obj)"] != 1 {
			t.Errorf("%s: sequences = %v, want %v", name, got, want)
		}
	}
}

// TestHugeAllocationCostsO1: importing an allocation costs the same
// whatever its size, and so does defining a type whose members lie far
// out. Each trace holds one allocation of up to 4 GiB and writes near
// its end; it must import with under 1 MB allocated (most of it
// Consume's ring), and each write must resolve as the member rules say:
// to the member at its offset, even one whose end passes 2^32, or, for
// an interior access into such a member, to none.
func TestHugeAllocationCostsO1(t *testing.T) {
	const base = 0x1000_0000
	for _, c := range []struct {
		size   uint32
		member uint32 // offset of the member "far", 8 bytes long
		writes []uint64
		want   uint64 // writes resolved to far
	}{
		{size: 1 << 24, member: 1<<24 - 8, writes: []uint64{1<<24 - 8, 1<<24 - 4}, want: 2},
		{size: 1<<32 - 8, member: 1<<32 - 16, writes: []uint64{1<<32 - 16, 1<<32 - 9, 1<<32 - 8}, want: 2},
		{size: 1<<32 - 1, member: 1<<32 - 8, writes: []uint64{1<<32 - 8, 1<<32 - 4}, want: 1},
	} {
		var evs []trace.Event
		evs = append(evs,
			trace.Event{Kind: trace.KindDefType, TypeID: 1, TypeName: "huge", Members: []trace.MemberDef{
				{Name: "first", Offset: 0, Size: 8}, {Name: "far", Offset: c.member, Size: 8}}},
			trace.Event{Kind: trace.KindAlloc, AllocID: 1, TypeID: 1, Addr: base, Size: c.size})
		for _, off := range c.writes {
			evs = append(evs, trace.Event{Kind: trace.KindWrite, Addr: base + off, AccessSize: 1, FuncID: 1})
		}
		evs = append(evs, trace.Event{Kind: trace.KindFree, AllocID: 1})
		data := encodeTrace(t, evs, 0)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		d, err := Import(r, Config{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("size %d: import allocated %d bytes, want under 1 MB", c.size, n)
		}
		var got uint64
		if g, ok := d.Group("huge", "", "far", true); ok {
			got = g.EventSum
		}
		if got != c.want || d.UnresolvedAddrs != uint64(len(c.writes))-c.want {
			t.Errorf("size %d: %d writes resolved to far and %d unresolved, want %d and %d",
				c.size, got, d.UnresolvedAddrs, c.want, uint64(len(c.writes))-c.want)
		}
	}
}

// memberScan is the member rule stated directly: the last member at
// exactly off, else the first whose bytes cover off in 32-bit offset
// arithmetic, else -1.
func memberScan(ms []trace.MemberDef, off uint32) int {
	mi := -1
	for i, m := range ms {
		if m.Offset == off {
			mi = i
		}
	}
	if mi >= 0 {
		return mi
	}
	for i, m := range ms {
		if m.Offset <= off && off < m.Offset+m.Size {
			return i
		}
	}
	return -1
}

// TestMemberTableMatchesScan checks the per-type member table against
// memberScan on random types, with members near offset 0 and near 2^32,
// unions, gaps and members whose end passes 2^32, at every offset where
// the answer may change and on either side of it.
func TestMemberTableMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 300; n++ {
		ms := make([]trace.MemberDef, rng.Intn(12))
		for i := range ms {
			off := uint32(rng.Intn(48))
			if rng.Intn(3) == 0 {
				off = 1<<32 - 1 - uint32(rng.Intn(48))
			}
			ms[i] = trace.MemberDef{Offset: off, Size: []uint32{0, 1, 2, 4, 8, 16, 1 << 31}[rng.Intn(7)]}
		}
		table := newMemberTable(ms)
		offs := []uint32{0, 1<<32 - 1}
		for _, m := range ms {
			for _, o := range []uint32{m.Offset, m.Offset + m.Size} {
				offs = append(offs, o-1, o, o+1)
			}
		}
		for _, off := range offs {
			if got, want := table.lookup(off), memberScan(ms, off); got != want {
				t.Fatalf("members %v: offset %d resolves to %d, want %d", ms, off, got, want)
			}
		}
		if len(table.start) > 3*len(ms)+1 {
			t.Fatalf("members %v: %d pieces", ms, len(table.start))
		}
	}
}
