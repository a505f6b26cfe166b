package core

import (
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
// Extending a node by lock k drops sequences with no unused occurrence
// of k, advances pos for the rest, and sums s_a over the sequences
// whose pos is still valid — greedy leftmost matching decides
// subsequence-ness exactly, so the node's s_a is final the moment it is
// created. Every distinct candidate is visited exactly once (children
// are the distinct keys remaining across active sequences), so no
// signature map is needed, and all per-node work happens in scratch
// buffers owned by the miner and reused across groups.
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
	nodes  []minerNode  // trie arena, reset per group
	seqs   []*db.SeqObs // flattened observation sequences of the group
	levels [][]seqState // per-depth projected active lists
	exts   [][]db.KeyID // per-depth distinct extension keys
	stamp  []uint32     // per-KeyID generation marks for ext dedup
	gen    uint32

	// Scratch-materialization state (work-stealing engine workers with
	// an interner). In prune mode the cut-off keeps only a handful of
	// the materialized candidates, so the full candidate set lands in
	// these reused buffers and mineOne copies the kept hypotheses out
	// through the interner; usedScratch records whether the current
	// result aliases them and therefore must be copied before return.
	flat        db.LockSeq
	hyps        []Hypothesis
	scratch     bool // caller provides an interner; scratch mode allowed
	usedScratch bool

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

// seqState is the projection of one observed sequence onto the current
// trie node.
type seqState struct {
	idx  int32  // index into miner.seqs
	pos  int32  // greedy subsequence-match position; -1 = not a subsequence
	used uint64 // bitmask of consumed sequence positions
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
	m.usedScratch = false
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
	m.seqs = m.seqs[:0]
	longest := 0
	for _, so := range g.Seqs {
		if len(so.Seq) > longest {
			longest = len(so.Seq)
		}
		m.seqs = append(m.seqs, so)
	}
	if longest > maxMinerSeqLen {
		return nil, false
	}
	m.maxLen = longest
	if opt.MaxLocks > 0 && opt.MaxLocks < longest {
		m.maxLen = opt.MaxLocks
	}
	m.total = float64(g.Total)
	m.prune = opt.CutoffThreshold > 0
	m.bound = opt.Floor()

	// Root: the "no lock needed" hypothesis; every observation
	// trivially complies.
	m.nodes = m.nodes[:0]
	m.nodes = append(m.nodes, minerNode{parent: -1, sa: g.Total})
	root := m.level(0)[:0]
	for i := range m.seqs {
		root = append(root, seqState{idx: int32(i)})
	}
	m.levels[0] = root
	m.expand(0, 0, root)
	return m.materialize(), true
}

// scratchActive reports whether materialize may write into the reused
// worker buffers: the caller must have provided an interner (scratch)
// AND the cut-off must prune the kept set down to the few hypotheses
// mineOne then copies out. Without a cut-off every candidate is kept,
// so interning them all would cost more than the per-group allocation
// it replaces.
func (m *miner) scratchActive() bool { return m.scratch && m.prune }

// expand generates all children of the node at nodeIdx (depth levels
// below the root) and recurses into the surviving subtrees.
func (m *miner) expand(nodeIdx int32, depth int, active []seqState) {
	if depth == m.maxLen {
		return
	}

	// Distinct extension keys: every key with an unused occurrence in
	// at least one active sequence, deduplicated with generation marks.
	exts := m.extLevel(depth)[:0]
	m.gen++
	if m.gen == 0 { // generation counter wrapped: invalidate all marks
		clear(m.stamp)
		m.gen = 1
	}
	gen := m.gen
	for _, st := range active {
		s := m.seqs[st.idx].Seq
		for p, k := range s {
			if st.used&(1<<uint(p)) != 0 {
				continue
			}
			if int(k) >= len(m.stamp) {
				m.growStamp(int(k) + 1)
			}
			if m.stamp[k] == gen {
				continue
			}
			m.stamp[k] = gen
			exts = append(exts, k)
		}
	}
	m.exts[depth] = exts

	for _, k := range exts {
		child := m.level(depth + 1)[:0]
		var sa uint64
		for _, st := range active {
			s := m.seqs[st.idx].Seq
			// Consume one unused occurrence of k; a sequence with
			// none left stops being a permutation superset and
			// drops out of the projection.
			found := -1
			for p := range s {
				if st.used&(1<<uint(p)) == 0 && s[p] == k {
					found = p
					break
				}
			}
			if found < 0 {
				continue
			}
			cst := seqState{idx: st.idx, pos: -1, used: st.used | 1<<uint(found)}
			if st.pos >= 0 {
				// Greedy leftmost subsequence matching: the
				// extended path complies iff k occurs at or after
				// the parent's match position.
				for p := st.pos; p < int32(len(s)); p++ {
					if s[p] == k {
						cst.pos = p + 1
						sa += m.seqs[st.idx].Count
						break
					}
				}
			}
			child = append(child, cst)
		}
		if m.prune && float64(sa)/m.total < m.bound {
			continue // s_a is anti-monotone: the whole subtree is dead
		}
		m.levels[depth+1] = child
		ci := int32(len(m.nodes))
		m.nodes = append(m.nodes, minerNode{
			parent: nodeIdx, depth: int32(depth) + 1, key: k, sa: sa,
		})
		m.expand(ci, depth+1, child)
	}
}

// materialize converts the node arena into the Hypothesis slice the
// rest of the pipeline consumes: one backing []KeyID for all sequences
// (two allocations total, instead of one map entry + one copy + one
// signature string per candidate in the reference path). In scratch
// mode (engine worker with an interner, prune on) even those two land
// in reused worker buffers and the caller copies the kept hypotheses
// out; usedScratch flags the aliasing result.
func (m *miner) materialize() []Hypothesis {
	flatLen := 0
	for i := range m.nodes {
		flatLen += int(m.nodes[i].depth)
	}
	var flat db.LockSeq
	var hyps []Hypothesis
	if m.scratchActive() {
		m.usedScratch = true
		if cap(m.flat) < flatLen {
			m.flat = make(db.LockSeq, flatLen)
		}
		flat = m.flat[:flatLen]
		if cap(m.hyps) < len(m.nodes) {
			m.hyps = make([]Hypothesis, len(m.nodes))
		}
		hyps = m.hyps[:len(m.nodes)]
	} else {
		flat = make(db.LockSeq, flatLen)
		hyps = make([]Hypothesis, len(m.nodes))
	}
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

func (m *miner) level(d int) []seqState {
	for len(m.levels) <= d {
		m.levels = append(m.levels, nil)
	}
	return m.levels[d]
}

func (m *miner) extLevel(d int) []db.KeyID {
	for len(m.exts) <= d {
		m.exts = append(m.exts, nil)
	}
	return m.exts[d]
}

func (m *miner) growStamp(n int) {
	grown := make([]uint32, 2*n)
	copy(grown, m.stamp)
	m.stamp = grown
}
