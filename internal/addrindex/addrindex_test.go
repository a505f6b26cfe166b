package addrindex

import (
	"math/rand"
	"testing"
)

// slotMap is the reference: one map entry per 8-byte slot of every
// allocation, keyed by the slot's address.
type slotMap map[uint64]uint8

func (m slotMap) insert(base uint64, size uint32, v uint8) {
	for off := uint64(0); off < uint64(size); off += 8 {
		m[base+off] = v
	}
}

func (m slotMap) remove(base uint64, size uint32, v uint8) {
	for off := uint64(0); off < uint64(size); off += 8 {
		if m[base+off] == v {
			delete(m, base+off)
		}
	}
}

func (m slotMap) lookup(addr uint64) (uint8, bool) {
	v, ok := m[addr&^7]
	return v, ok
}

// window is 2 KiB of address space around 0: its upper half is the
// window at 0, its lower half the window just below 2^64.
const window = 1 << 11

// base maps two fuzz bytes to an allocation base in one of the two
// windows: 8-aligned unless the top bit of b0 is set.
func base(b0, b1 byte) uint64 {
	a := uint64(b0&0x3)<<8 | uint64(b1)
	if b0&0x4 != 0 {
		a -= window / 2
	}
	if b0&0x80 == 0 {
		a &^= 7
	}
	return a
}

// check compares every slot of the window in ix against ref, at an
// offset of off bytes into each slot.
func check(t *testing.T, ix *Index[uint8], ref slotMap, off uint64, step int) {
	t.Helper()
	for a := ^uint64(window/2 - 1); a != window/2; a += 8 {
		got, gok := ix.Lookup(a + off)
		want, wok := ref.lookup(a + off)
		if got != want || gok != wok {
			t.Fatalf("step %d: Lookup(%#x) = %d, %v; slot map says %d, %v", step, a+off, got, gok, want, wok)
		}
	}
	for i := 1; i < len(ix.spans); i++ {
		if ix.spans[i-1].hi > ix.spans[i].lo || ix.spans[i].lo >= ix.spans[i].hi {
			t.Fatalf("step %d: spans %d and %d are not sorted and disjoint: %v", step, i-1, i, ix.spans)
		}
	}
}

// run applies ops, five bytes each (kind, two bytes of base, size in
// bytes, value), to an index and to the slot map, and compares them
// after every op.
func run(t *testing.T, ops []byte) {
	var ix Index[uint8]
	ref := slotMap{}
	for step := 0; len(ops) >= 5; step++ {
		kind, at, size, v := ops[0], base(ops[1], ops[2]), uint32(ops[3]), ops[4]%4
		ops = ops[5:]
		if kind%3 == 0 {
			ix.Remove(at, size, v)
			ref.remove(at, size, v)
		} else {
			ix.Insert(at, size, v)
			ref.insert(at, size, v)
		}
		check(t, &ix, ref, uint64(kind>>5), step)
	}
}

// FuzzAddrIndex drives the index with random inserts and removes at
// aligned and unaligned bases in two small windows, at 0 and just below
// 2^64, so allocations overlap and wrap, and checks every lookup
// against a slot map.
func FuzzAddrIndex(f *testing.F) {
	f.Add([]byte{})
	// A newer allocation takes over shared slots; removing it leaves
	// holes, not the older owner.
	f.Add([]byte{1, 0, 0x10, 32, 1, 1, 0, 0x20, 16, 2, 0, 0, 0x20, 16, 2, 0, 0, 0x10, 32, 1})
	// One allocation inside another splits it.
	f.Add([]byte{1, 0, 0x00, 64, 1, 1, 0, 0x10, 8, 2, 0, 0, 0x10, 8, 2, 0, 0, 0x00, 64, 1})
	// Wrapping past 2^64, then an unaligned base.
	f.Add([]byte{1, 7, 0xf0, 48, 1, 1, 0, 0x00, 8, 2, 1, 0x80, 0x04, 16, 3, 0, 7, 0xf0, 48, 1})
	// Removing with another value, or at another range, than inserted.
	f.Add([]byte{1, 0, 0x10, 32, 1, 0, 0, 0x10, 32, 2, 0, 0, 0x18, 8, 1, 1, 0, 0x18, 8, 1, 0, 0, 0x00, 0xff, 1})
	f.Fuzz(func(t *testing.T, ops []byte) { run(t, ops) })
}

// TestRandomOps runs longer random op sequences than the fuzz seeds.
func TestRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		ops := make([]byte, 5*(20+rng.Intn(100)))
		rng.Read(ops)
		run(t, ops)
	}
}

// TestLookupAllocationFree: neither an index lookup nor a change
// allocates once the spans have room.
func TestLookupAllocationFree(t *testing.T) {
	var ix Index[*int]
	v := new(int)
	for i := uint64(0); i < 64; i++ {
		ix.Insert(i*64, 32, v)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ix.Insert(0x100, 16, v)
		if _, ok := ix.Lookup(0x108); !ok {
			t.Fatal("lookup missed")
		}
		ix.Remove(0x100, 16, v)
	})
	if allocs != 0 {
		t.Errorf("%v allocations per insert, lookup and remove, want 0", allocs)
	}
}
