package db

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"lockdoc/internal/trace"
)

var updateEdges = flag.Bool("update-edges", false, "rewrite testdata/import_edges.golden")

const edgesGolden = "testdata/import_edges.golden"

// top is the highest 8-aligned address; allocations based near it have
// slots that wrap past 2^64.
const top = ^uint64(7)

// edgeConfig subclasses one type and black-lists a function and a
// member, so the edge cases also cross every import filter.
func edgeConfig() Config {
	return Config{
		Lenient:         true,
		SubclassedTypes: []string{"t2"},
		FuncBlacklist:   []string{"init"},
		MemberBlacklist: map[string][]string{"t3": {"m1"}},
	}
}

// edgeCase is one hand-built import edge case. run feeds a store and
// returns any sealed views taken along the way; the golden pins each
// view's state and then the live store's, sealed before and after its
// final Flush.
type edgeCase struct {
	name string
	run  func(f *feeder) []*DB
}

// m is a member definition.
func m(name string, off, size uint32) trace.MemberDef {
	return trace.MemberDef{Name: name, Offset: off, Size: size}
}

// txn writes each address in a transaction of its own under lock.
func (f *feeder) txn(ctx uint32, lock uint64, addrs ...uint64) {
	for _, a := range addrs {
		f.acquire(ctx, lock)
		f.write(ctx, a, 1, 1)
		f.release(ctx, lock)
	}
}

func edgeCases() []edgeCase {
	return []edgeCase{
		{"overlapping allocations", func(f *feeder) []*DB {
			f.defType(1, "t1", m("a0", 0, 8), m("a1", 8, 8), m("a2", 16, 8), m("a3", 24, 8))
			f.defType(2, "t2", m("b0", 0, 8), m("b1", 8, 8))
			f.defLock(1, "l", trace.LockSpin, 0x100, 0)
			addrs := []uint64{0x1000, 0x1008, 0x1010, 0x1018, 0x1020}
			f.alloc(1, 1, 1, 0x1000, 32, "")
			f.alloc(1, 2, 2, 0x1010, 16, "ext4")
			f.txn(1, 1, addrs...)
			f.free(1, 2, 0x1010)
			f.txn(1, 1, addrs...)
			f.alloc(1, 3, 2, 0x1008, 24, "proc") // overlaps a1..a3
			f.txn(1, 1, addrs...)
			f.free(1, 1, 0x1000)
			f.txn(1, 1, addrs...)
			return nil
		}},
		{"unaligned base", func(f *feeder) []*DB {
			f.defType(1, "t1", m("a0", 0, 8), m("a1", 8, 8))
			f.defLock(1, "l", trace.LockSpin, 0x100, 0)
			f.alloc(1, 1, 1, 0x2004, 16, "")
			f.alloc(1, 2, 1, 0x2014, 12, "")
			f.alloc(1, 3, 1, 0x2020, 16, "")
			f.defLock(2, "own", trace.LockMutex, 0x2008, 0x2004)
			f.txn(1, 1, 0x2000, 0x2004, 0x2008, 0x200c, 0x2010, 0x2018, 0x2020, 0x2028)
			f.txn(1, 2, 0x2020)
			f.free(1, 1, 0x2004)
			f.txn(1, 1, 0x2004, 0x2020)
			return nil
		}},
		{"slots wrap past 2^64", func(f *feeder) []*DB {
			f.defType(1, "t1", m("a0", 0, 8), m("a1", 8, 8), m("a2", 16, 8), m("a3", 24, 8), m("a4", 32, 4))
			f.defLock(1, "l", trace.LockSpin, 0x100, 0)
			f.alloc(1, 1, 1, top-8, 36, "") // slots -16, -8, 0, 8, 16
			f.defLock(2, "own", trace.LockSpin, 8, 0)
			f.txn(1, 1, top-16, top-8, top, top+4, 0, 8, 16, 20, 24, 32)
			f.txn(1, 2, top-8, 0)
			f.alloc(1, 2, 1, top, 16, "") // slots -8, 0: takes them over
			f.txn(1, 1, top-8, top, 0, 8)
			f.free(1, 2, top)
			f.txn(1, 1, top-8, top, 0, 8)
			f.free(1, 1, top-8)
			f.txn(1, 1, top-8, 0)
			return nil
		}},
		{"allocation ID reused under an open transaction", func(f *feeder) []*DB {
			f.defType(1, "t1", m("a0", 0, 8), m("a1", 8, 8))
			f.defType(2, "t2", m("b0", 0, 8), m("b1", 8, 8), m("b2", 16, 8))
			f.defLock(1, "l", trace.LockSpin, 0x100, 0)
			f.alloc(1, 5, 1, 0x3000, 16, "")
			f.defLock(2, "own", trace.LockSpin, 0x3008, 0x3000) // embedded in allocation 5
			f.acquire(1, 1)
			f.acquire(1, 2)
			f.write(1, 0x3000, 1, 1)
			f.read(2, 0x3008, 1, 1)
			f.free(1, 5, 0x3000)
			f.alloc(1, 5, 2, 0x4000, 24, "ext4") // same ID, another type
			f.write(1, 0x4000, 1, 1)
			f.write(1, 0x4010, 1, 1)
			f.read(2, 0x4008, 1, 1)
			f.release(1, 2)
			f.write(1, 0x4000, 1, 1)
			f.release(1, 1)
			f.write(2, 0x4010, 2, 2)
			// Reused without a free: the older allocation keeps the slots
			// the newer one does not claim.
			f.alloc(1, 6, 1, 0x5000, 16, "")
			f.acquire(1, 1)
			f.write(1, 0x5008, 1, 1)
			f.alloc(1, 6, 2, 0x6000, 24, "proc")
			f.write(1, 0x6008, 1, 1)
			f.write(1, 0x5008, 1, 1)
			f.free(1, 6, 0x6000)
			f.write(1, 0x5000, 1, 1)
			f.write(1, 0x6008, 1, 1)
			f.release(1, 1)
			f.alloc(1, 6, 2, 0x6000, 24, "proc")
			f.txn(1, 1, 0x5008, 0x6008)
			return nil
		}},
		{"type redefined with more members", func(f *feeder) []*DB {
			f.defType(1, "t1", m("a0", 0, 8), m("a1", 8, 8))
			f.defType(2, "t2", m("b0", 0, 8))
			f.defLock(1, "l", trace.LockSpin, 0x100, 0)
			f.alloc(1, 1, 1, 0x1000, 16, "")
			f.alloc(1, 2, 2, 0x2000, 8, "ext4")
			f.txn(1, 1, 0x1000, 0x1008, 0x2000)
			f.defType(1, "t1", m("a0", 0, 8), m("a1", 8, 8), m("a2", 16, 8), m("a3", 24, 8))
			f.defType(2, "t2", m("b0", 0, 8), m("b1", 8, 4), m("b2", 12, 4))
			f.alloc(1, 3, 1, 0x3000, 32, "")
			f.alloc(1, 4, 2, 0x4000, 16, "ext4")
			f.txn(1, 1, 0x1000, 0x1008, 0x1010, 0x3000, 0x3018, 0x2000, 0x4008, 0x400c)
			f.defType(1, "t1", m("a0", 0, 8)) // and fewer again
			f.alloc(1, 5, 1, 0x5000, 32, "")
			f.txn(1, 1, 0x3018, 0x5000, 0x5008)
			return nil
		}},
		{"union members at one offset", func(f *feeder) []*DB {
			f.defType(1, "t1", m("u0", 0, 8), m("u1", 0, 4), m("u2", 4, 4), m("u3", 0, 8), m("x", 8, 8), m("y", 8, 2))
			f.defLock(1, "l", trace.LockSpin, 0x100, 0)
			f.alloc(1, 1, 1, 0x1000, 16, "")
			f.txn(1, 1, 0x1000, 0x1001, 0x1002, 0x1004, 0x1006, 0x1008, 0x1009, 0x100a, 0x100f)
			return nil
		}},
		{"sub-word and past-the-end accesses", func(f *feeder) []*DB {
			f.defType(1, "t1", m("a", 0, 2), m("b", 2, 2), m("c", 8, 4), m("d", 12, 0), m("e", 13, 1))
			f.defType(3, "t3", m("m0", 0, 8), m("m1", 8, 8), m("m2", 16, 8))
			f.defLock(1, "l", trace.LockSpin, 0x100, 0)
			f.alloc(1, 1, 1, 0x1000, 40, "")
			f.alloc(1, 2, 3, 0x2000, 24, "")
			for off := uint64(0); off < 44; off++ {
				f.txn(1, 1, 0x1000+off)
			}
			f.txn(1, 1, 0x2000, 0x2008, 0x200c, 0x2010, 0x2018)
			return nil
		}},
		{"lock owner in an overlapped allocation", func(f *feeder) []*DB {
			f.defType(1, "t1", m("a0", 0, 8), m("a1", 8, 8), m("a2", 16, 8), m("a3", 24, 8))
			f.defType(2, "t2", m("b0", 0, 8), m("b1", 8, 8))
			f.alloc(1, 1, 1, 0x7000, 32, "")
			f.alloc(1, 2, 2, 0x7010, 16, "ext4")
			f.defLock(1, "lo", trace.LockSpin, 0x7018, 0x7014) // owner: allocation 2
			f.defLock(2, "hi", trace.LockSpin, 0x7008, 0x7008) // owner: allocation 1
			f.free(1, 2, 0x7010)
			f.defLock(3, "gone", trace.LockSpin, 0x7010, 0x7010) // owner freed: global
			for _, l := range []uint64{1, 2, 3} {
				f.acquire(1, l)
			}
			f.write(1, 0x7000, 1, 1)
			f.write(1, 0x7010, 1, 1)
			f.alloc(1, 3, 2, 0x7010, 16, "proc")
			f.write(1, 0x7018, 1, 1)
			f.release(1, 2)
			f.write(1, 0x7018, 1, 1)
			return nil
		}},
		{"seal in the middle of a transaction", func(f *feeder) []*DB {
			f.defType(1, "t1", m("a0", 0, 8), m("a1", 8, 8))
			f.defType(2, "t2", m("b0", 0, 8))
			f.defLock(1, "l1", trace.LockSpin, 0x100, 0)
			f.defLock(2, "l2", trace.LockMutex, 0x108, 0)
			f.alloc(1, 1, 1, 0x1000, 16, "")
			f.alloc(1, 2, 2, 0x2000, 8, "ext4")
			f.acquire(1, 1)
			f.write(1, 0x1000, 1, 1)
			f.read(2, 0x2000, 1, 1)
			v1 := f.db.Seal()
			f.write(1, 0x1008, 1, 1)
			f.acquire(2, 2)
			f.write(2, 0x2000, 2, 2)
			v2 := f.db.Seal()
			f.free(1, 1, 0x1000) // freed with a pending observation on it
			f.read(1, 0x2000, 1, 1)
			v3 := f.db.Seal()
			f.release(1, 1)
			f.release(2, 2)
			v4 := f.db.Seal()
			return []*DB{v1, v2, v3, v4}
		}},
	}
}

// edgeStream feeds a random trace built from the edge cases' shapes:
// allocations in two small windows, one at 0 and one wrapping past
// 2^64, at aligned and unaligned bases, with overlaps and reused IDs;
// types redefined with other members, unions and gaps; locks embedded
// in whatever their owner address resolves to; accesses mostly in or
// just past an allocation made earlier; and seals anywhere.
func edgeStream(rng *rand.Rand, f *feeder) []*DB {
	windows := []uint64{0x1000, top - 0x38}
	addr := func() uint64 {
		a := windows[rng.Intn(2)] + uint64(rng.Intn(0x80))
		if rng.Intn(6) > 0 {
			a &^= 7
		}
		return a
	}
	defType := func(id uint32) {
		ms := make([]trace.MemberDef, 1+rng.Intn(6))
		for i := range ms {
			ms[i] = m(fmt.Sprintf("m%d", i), uint32(rng.Intn(10)*4), []uint32{0, 1, 2, 4, 8, 8, 8, 16}[rng.Intn(8)])
			ms[i].Atomic = rng.Intn(12) == 0
		}
		ms[0].Offset, ms[0].Size = 0, 16
		f.defType(id, fmt.Sprintf("t%d", id), ms...)
	}
	type span struct{ base, size uint64 }
	var made []span
	alloc := func(ctx uint32) {
		a, size := addr(), []uint32{0, 4, 8, 12, 16, 24, 32, 40, 48}[rng.Intn(9)]
		made = append(made, span{a, uint64(size)})
		typ := uint32(1 + rng.Intn(3))
		if rng.Intn(10) == 0 {
			typ = 4 // undefined
		}
		f.alloc(ctx, uint64(1+rng.Intn(6)), typ, a, size, []string{"", "ext4", "proc"}[rng.Intn(3)])
	}
	defLock := func(id uint64) {
		owner := uint64(0)
		if rng.Intn(3) > 0 {
			owner = addr()
		}
		f.defLock(id, fmt.Sprintf("l%d", rng.Intn(3)), trace.LockSpin, 0x100, owner)
	}
	for id := uint32(1); id <= 3; id++ {
		defType(id)
	}
	for i := 0; i < 4; i++ {
		alloc(1)
	}
	for id := uint64(1); id <= 4; id++ {
		defLock(id)
	}
	f.defFunc(1, "x.c", 1, "f")
	f.defFunc(2, "x.c", 2, "init")
	f.defStack(1, 1)
	f.defStack(2, 1, 2)
	var views []*DB
	n := 100 + rng.Intn(300)
	for i := 0; i < n; i++ {
		ctx := uint32(1 + rng.Intn(3))
		switch r := rng.Intn(100); {
		case r < 3:
			defType(uint32(1 + rng.Intn(3)))
		case r < 12:
			alloc(ctx)
		case r < 18:
			f.free(ctx, uint64(1+rng.Intn(7)), 0)
		case r < 21:
			defLock(uint64(1 + rng.Intn(4)))
		case r < 33:
			f.acquire(ctx, uint64(1+rng.Intn(5)))
		case r < 45:
			f.release(ctx, uint64(1+rng.Intn(5)))
		case r < 47:
			views = append(views, f.db.Seal())
		default:
			a := addr()
			if rng.Intn(4) > 0 {
				s := made[len(made)-1-rng.Intn(min(len(made), 6))]
				a = s.base + uint64(rng.Intn(int(s.size)+1))
			}
			fn, stack := uint32(1), uint32(rng.Intn(3))
			if rng.Intn(2) == 0 {
				f.write(ctx, a, fn, stack)
			} else {
				f.read(ctx, a, fn, stack)
			}
		}
	}
	return views
}

// TestImportEdgeCasesGolden pins the sealed state of hand-built traces
// for the import edge cases, and of seeded random traces built from
// their shapes, as stateOf digests: every view a case seals along the
// way, then the live store sealed before and after its final Flush.
// FuzzImport compares ingest paths that share Add, so only this golden
// holds what Add itself does. Regenerate with -update-edges.
func TestImportEdgeCasesGolden(t *testing.T) {
	var got strings.Builder
	pin := func(name string, f *feeder, views []*DB) {
		var digests []string
		digest := func(d *DB) {
			digests = append(digests, fmt.Sprintf("%x", sha256.Sum256([]byte(stateOf(t, d))))[:16])
		}
		for _, v := range views {
			digest(v)
		}
		digest(f.db)
		f.db.Flush()
		digest(f.db)
		fmt.Fprintf(&got, "%s: %s\n", name, strings.Join(digests, " "))
	}
	for _, c := range edgeCases() {
		f := newFeeder(t, edgeConfig())
		f.defFunc(1, "x.c", 1, "f")
		f.defFunc(2, "x.c", 2, "g")
		f.defStack(1, 1)
		f.defStack(2, 2)
		pin(c.name, f, c.run(f))
	}
	for seed := int64(1); seed <= 50; seed++ {
		f := newFeeder(t, edgeConfig())
		pin(fmt.Sprintf("random seed %d", seed), f, edgeStream(rand.New(rand.NewSource(seed)), f))
	}

	if *updateEdges {
		if err := os.WriteFile(edgesGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(edgesGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("state differs from %s:\n got %s\nwant %s", edgesGolden, gotLines[i], wantLines[i])
		}
	}
}
