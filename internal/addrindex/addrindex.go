// Package addrindex resolves an address to the live allocation that
// contains it, by the rules of a map with one entry per 8-byte slot but
// at a cost independent of allocation sizes.
//
// An allocation of size bytes at an 8-aligned base claims the
// ceil(size/8) slots from its base up, wrapping past 2^64, and a lookup
// rounds its address down to a slot. The latest allocation to claim a
// slot owns it. Removing an allocation frees only the slots it still
// owns: an older allocation it overlapped does not get them back. An
// allocation at an unaligned base claims slots no lookup reads, so it
// resolves nothing and the index does not record it.
//
// The index keeps the owned slots as sorted, disjoint spans, so Insert
// and Remove cost a binary search plus a move of the spans after the
// changed ones, and Lookup a binary search.
package addrindex

import "slices"

// slots is the number of 8-byte slots in the address space.
const slots = 1 << 61

// span is a run of slots [lo, hi) owned by one value.
type span[V comparable] struct {
	lo, hi uint64
	v      V
}

// Index maps the slots of live allocations to their values. The zero
// value is an empty index.
type Index[V comparable] struct {
	spans []span[V]
}

// Insert records an allocation of size bytes at base, owned by v. It
// takes over every slot it shares with an earlier allocation.
func (ix *Index[V]) Insert(base uint64, size uint32, v V) {
	ix.each(base, size, func(lo, hi uint64) { ix.set(lo, hi, v) })
}

// Remove frees the slots of the allocation of size bytes at base that v
// still owns.
func (ix *Index[V]) Remove(base uint64, size uint32, v V) {
	ix.each(base, size, func(lo, hi uint64) { ix.clear(lo, hi, v) })
}

// Lookup returns the value owning the slot of addr, if any.
func (ix *Index[V]) Lookup(addr uint64) (V, bool) {
	slot := addr >> 3
	if i := ix.after(slot); i < len(ix.spans) && ix.spans[i].lo <= slot {
		return ix.spans[i].v, true
	}
	var zero V
	return zero, false
}

// each calls f with the slot range of an allocation: one range, or two
// if it wraps past 2^64, and none if base is unaligned or size is 0.
func (ix *Index[V]) each(base uint64, size uint32, f func(lo, hi uint64)) {
	if base&7 != 0 || size == 0 {
		return
	}
	lo := base >> 3
	hi := lo + (uint64(size)+7)>>3
	if hi > slots {
		f(lo, slots)
		lo, hi = 0, hi-slots
	}
	f(lo, hi)
}

// after returns the index of the first span that ends after slot. It
// halves its range without a data-dependent branch, which would
// mispredict on about every second step: slot numbers are below 2^61,
// so the sign of hi-slot-1 says whether a span ends at or before slot,
// and masks the step.
func (ix *Index[V]) after(slot uint64) int {
	s := ix.spans
	i, n := 0, len(s)
	for n > 1 {
		half := n >> 1
		i += half & int(int64(s[i+half-1].hi-slot-1)>>63)
		n -= half
	}
	if n == 1 && s[i].hi <= slot {
		i++
	}
	return i
}

// overlap returns the spans [i, j) that share a slot with [lo, hi).
func (ix *Index[V]) overlap(lo, hi uint64) (i, j int) {
	i = ix.after(lo)
	j = i
	for j < len(ix.spans) && ix.spans[j].lo < hi {
		j++
	}
	return i, j
}

// set gives the slots [lo, hi) to v, trimming the spans it overlaps.
func (ix *Index[V]) set(lo, hi uint64, v V) {
	s := ix.spans
	i, j := ix.overlap(lo, hi)
	if i < j && s[i].lo < lo {
		if s[i].hi > hi {
			// Inside one span: split it around the new one.
			ix.spans = slices.Insert(s, i+1, span[V]{lo, hi, v}, span[V]{hi, s[i].hi, s[i].v})
			ix.spans[i].hi = lo
			return
		}
		s[i].hi = lo
		i++
	}
	if i < j && s[j-1].hi > hi {
		s[j-1].lo = hi
		j--
	}
	ix.spans = slices.Replace(s, i, j, span[V]{lo, hi, v})
}

// clear frees the slots of [lo, hi) that v owns.
func (ix *Index[V]) clear(lo, hi uint64, v V) {
	s := ix.spans
	i, j := ix.overlap(lo, hi)
	if i < j && s[i].v == v && s[i].lo < lo {
		if s[i].hi > hi {
			// Inside one span: keep both ends.
			ix.spans = slices.Insert(s, i+1, span[V]{hi, s[i].hi, v})
			ix.spans[i].hi = lo
			return
		}
		s[i].hi = lo
		i++
	}
	if i < j && s[j-1].v == v && s[j-1].hi > hi {
		s[j-1].lo = hi
		j--
	}
	k := i
	for _, sp := range s[i:j] {
		if sp.v != v {
			s[k] = sp
			k++
		}
	}
	ix.spans = slices.Delete(s, k, j)
}
