package core

import (
	"math/bits"
	"sync"

	"lockdoc/internal/db"
)

// This file implements the trie-based hypothesis mining engine that
// backs Derive. The reference implementation it replaces enumerated
// every permutation of every subset of each observed lock combination
// into a map keyed by string signatures and then scored each candidate
// against every observed sequence — paying the factorial candidate
// space twice and allocating per candidate.
//
// The miner fuses enumeration and scoring into one depth-first walk of
// the (implicit) permutation trie. A trie node is a candidate
// hypothesis: the KeyID-labelled path from the root. The DFS carries a
// projected state per observed sequence:
//
//   - used: which positions of the sequence the path has consumed
//     (multiset bookkeeping — the node is a permutation of a
//     sub-multiset of the sequence iff the sequence is still in the
//     node's active list),
//   - pos: the greedy subsequence-match position, or -1 once the path
//     stopped being a subsequence of the sequence.
//
// Mining a group first flattens its sequences into one array of
// positions. Each position p carries two masks over its sequence:
// same[p], the positions holding the same lock, and before[p], those of
// them left of p. A node then makes one scan over its active states.
// A free position p with before[p] inside used is the first unused
// occurrence of its lock, the one the path consumes when it appends
// that lock: the child state gets used | 1<<p, and its match position
// is one past the first position of same[p] at or after pos (none: the
// extended path is no longer a subsequence). The child state lands in
// its lock's bucket, and the sequence's count is added to the bucket's
// s_a when the match holds — greedy leftmost matching decides
// subsequence-ness exactly, so a child's s_a is final once the scan
// ends. A sequence with no unused occurrence of a lock adds nothing to
// that lock's bucket: it drops out of the child's projection. The
// buckets, one per distinct extension lock, are then visited in the
// order the scan opened them. Every distinct candidate is visited
// exactly once, so no signature map is needed, and all per-node work
// happens in scratch buffers owned by the miner and reused across
// groups. Repeated locks in one sequence need no case of their own: the
// masks cover them.
//
// Threshold pruning: s_a is anti-monotone under hypothesis extension
// (appending a lock can only lose supporting observations — see
// TestSupportMonotoneProperty). When the caller sets a reporting
// cut-off t_co, any node with s_r < min(t_ac, t_co) can neither win
// (winner selection requires s_r >= t_ac) nor be reported (the cut-off
// filter requires s_r >= t_co, winner excepted), and neither can any
// of its descendants — the whole subtree is skipped. Results are
// therefore byte-identical to the unpruned reference
// (TestMinerMatchesReference, FuzzDeriveEquivalence).
type miner struct {
	nodes   []minerNode  // trie arena, reset per group
	seqs    []minerSeq   // the group's observation sequences, flattened
	posns   []minerPos   // every position of every sequence, in order
	root    []seqState   // the root's active list
	buckets [][]bucket   // per-depth children of the node being expanded
	stamp   []stampEntry // per-KeyID bucket of the current node
	gen     uint32       // current node's stamp generation

	// Per-group mining parameters.
	maxLen int
	total  float64
	prune  bool
	bound  float64 // Options.Floor: min(t_ac, t_co), valid when prune
}

// minerNode is one materialized trie node. The candidate sequence is
// the key-path from the root, reconstructed via parent links only once
// at the end, into a single flat buffer.
type minerNode struct {
	parent int32
	depth  int32
	key    db.KeyID
	sa     uint64
}

// minerSeq is one observed sequence of the group being mined.
type minerSeq struct {
	off   int32  // index of its first position in miner.posns
	full  uint64 // one bit per position
	count uint64 // folded observations (the s_a unit)
}

// minerPos is one position of a flattened sequence.
type minerPos struct {
	key    db.KeyID
	same   uint64 // positions of the sequence holding key, this one included
	before uint64 // the positions of same left of this one
}

// seqState is the projection of one observed sequence onto the current
// trie node.
type seqState struct {
	idx  int32  // index into miner.seqs
	pos  int32  // greedy subsequence-match position; -1 = not a subsequence
	used uint64 // bitmask of consumed sequence positions
}

// bucket collects one child of the node being expanded: the lock it
// appends, its support and its projected active list.
type bucket struct {
	key    db.KeyID
	sa     uint64
	states []seqState
}

// stampEntry maps a KeyID to its bucket; it is valid only while gen
// equals the miner's current generation, so nodes need no clearing.
type stampEntry struct {
	gen    uint32
	bucket int32
}

// maxMinerSeqLen bounds the used-position bitmask; groups observing a
// longer held-lock sequence fall back to the reference enumerator.
const maxMinerSeqLen = 64

var minerPool = sync.Pool{New: func() any { return new(miner) }}

// derive runs the full derivation for one group using the mining
// engine, falling back to the reference enumerator for sequences too
// long for the projection bitmask.
func (m *miner) derive(g *db.ObsGroup, opt Options) Result {
	res := Result{Group: g, Total: g.Total}
	if g.Total == 0 {
		return res
	}
	hyps, ok := m.mine(g, opt)
	if !ok {
		hyps = referenceCandidates(g, opt)
	}
	choose(&res, hyps[:0], hyps, opt)
	return res
}

// mine grows the permutation trie for group g and returns one
// Hypothesis per surviving node. It reports false when the group is
// beyond the engine's sequence-length limit.
func (m *miner) mine(g *db.ObsGroup, opt Options) ([]Hypothesis, bool) {
	m.nodes = m.nodes[:0]
	longest, ok := m.flatten(g)
	if !ok {
		return nil, false
	}
	m.maxLen = longest
	if opt.MaxLocks > 0 && opt.MaxLocks < longest {
		m.maxLen = opt.MaxLocks
	}
	for len(m.buckets) < m.maxLen {
		m.buckets = append(m.buckets, nil)
	}
	m.total = float64(g.Total)
	m.prune = opt.CutoffThreshold > 0
	m.bound = opt.Floor()

	// Root: the "no lock needed" hypothesis; every observation
	// trivially complies.
	m.nodes = append(m.nodes, minerNode{parent: -1, sa: g.Total})
	m.root = m.root[:0]
	for i := range m.seqs {
		m.root = append(m.root, seqState{idx: int32(i)})
	}
	m.expand(0, 0, m.root)
	return m.materialize(), true
}

// flatten lays g's sequences out in seqs and posns, with each
// position's masks, and sizes the stamp table for their keys. It
// returns the longest sequence's length, or false when a sequence is
// longer than the projection bitmask.
func (m *miner) flatten(g *db.ObsGroup) (int, bool) {
	m.seqs, m.posns = m.seqs[:0], m.posns[:0]
	longest, maxKey := 0, -1
	for _, so := range g.Seqs {
		s := so.Seq
		if len(s) > maxMinerSeqLen {
			return 0, false
		}
		longest = max(longest, len(s))
		m.seqs = append(m.seqs, minerSeq{
			off: int32(len(m.posns)), full: uint64(1)<<uint(len(s)) - 1, count: so.Count,
		})
		for p, k := range s {
			var same uint64
			for q, kq := range s {
				if kq == k {
					same |= 1 << uint(q)
				}
			}
			m.posns = append(m.posns, minerPos{key: k, same: same, before: same & (1<<uint(p) - 1)})
			maxKey = max(maxKey, int(k))
		}
	}
	if maxKey >= len(m.stamp) {
		grown := make([]stampEntry, 2*(maxKey+1))
		copy(grown, m.stamp)
		m.stamp = grown
	}
	return longest, true
}

// expand generates all children of the node at nodeIdx (depth levels
// below the root) in one scan of its active states, then recurses into
// the surviving subtrees.
func (m *miner) expand(nodeIdx int32, depth int, active []seqState) {
	if depth == m.maxLen {
		return
	}
	m.gen++
	if m.gen == 0 { // generation counter wrapped: invalidate all stamps
		clear(m.stamp)
		m.gen = 1
	}
	gen := m.gen
	bk := m.buckets[depth][:0]
	for _, st := range active {
		sq := &m.seqs[st.idx]
		for free := sq.full &^ st.used; free != 0; free &= free - 1 {
			p := bits.TrailingZeros64(free)
			mp := &m.posns[int(sq.off)+p]
			if mp.before&^st.used != 0 {
				continue // an earlier occurrence of this lock is unused
			}
			se := &m.stamp[mp.key]
			if se.gen != gen {
				se.gen, se.bucket = gen, int32(len(bk))
				bk = openBucket(bk, mp.key)
			}
			b := &bk[se.bucket]
			cst := seqState{idx: st.idx, pos: -1, used: st.used | 1<<uint(p)}
			if st.pos >= 0 {
				// Greedy leftmost subsequence matching: the extended
				// path complies iff the lock occurs at or after the
				// parent's match position.
				if rest := mp.same & (^uint64(0) << uint(st.pos)); rest != 0 {
					cst.pos = int32(bits.TrailingZeros64(rest)) + 1
					b.sa += sq.count
				}
			}
			b.states = append(b.states, cst)
		}
	}
	m.buckets[depth] = bk

	for i := range bk {
		b := &bk[i]
		if m.prune && float64(b.sa)/m.total < m.bound {
			continue // s_a is anti-monotone: the whole subtree is dead
		}
		ci := int32(len(m.nodes))
		m.nodes = append(m.nodes, minerNode{
			parent: nodeIdx, depth: int32(depth) + 1, key: b.key, sa: b.sa,
		})
		m.expand(ci, depth+1, b.states)
	}
}

// openBucket appends an empty bucket for key, reusing the states buffer
// an earlier node left in that slot.
func openBucket(bk []bucket, key db.KeyID) []bucket {
	if len(bk) == cap(bk) {
		return append(bk, bucket{key: key})
	}
	bk = bk[:len(bk)+1]
	b := &bk[len(bk)-1]
	b.key, b.sa, b.states = key, 0, b.states[:0]
	return bk
}

// materialize converts the node arena into the Hypothesis slice the
// rest of the pipeline consumes: one backing []KeyID for all sequences
// (two allocations total, instead of one map entry + one copy + one
// signature string per candidate in the reference path). Both are
// fresh, so the result owns its memory and outlives the miner's reuse.
func (m *miner) materialize() []Hypothesis {
	flatLen := 0
	for i := range m.nodes {
		flatLen += int(m.nodes[i].depth)
	}
	flat := make(db.LockSeq, flatLen)
	hyps := make([]Hypothesis, len(m.nodes))
	off := 0
	for i := range m.nodes {
		n := &m.nodes[i]
		hyps[i] = Hypothesis{Sa: n.sa, Sr: float64(n.sa) / m.total}
		if n.depth == 0 {
			continue // root keeps Seq == nil, like the reference's "" entry
		}
		seg := flat[off : off+int(n.depth)]
		off += int(n.depth)
		j := int32(i)
		for d := int(n.depth) - 1; d >= 0; d-- {
			seg[d] = m.nodes[j].key
			j = m.nodes[j].parent
		}
		hyps[i].Seq = seg
	}
	return hyps
}
