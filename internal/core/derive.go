// Package core implements LockDoc's locking-rule derivation (Sec. 4.3
// and 5.4 of the paper).
//
// For one observation group — all folded accesses to one data-structure
// member, split by access type — the derivator enumerates locking-rule
// hypotheses and computes two support metrics for each:
//
//	s_a — absolute support: the number of folded observations
//	      (transactions) complying with the hypothesis,
//	s_r — relative support: s_a divided by the total number of folded
//	      observations of the member.
//
// An observation complies with hypothesis h if every lock of h was held
// and acquired in h's order; additional interleaved locks are harmless
// (h must be a subsequence of the observed acquisition sequence).
//
// Hypotheses are not enumerated over all possible lock combinations —
// infeasible with tens of thousands of locks — but as every permutation
// of every subset of each *observed* lock combination, which covers all
// hypotheses with s_a >= 1 (Sec. 5.4). The empty "no lock needed"
// hypothesis is always included and trivially has s_r = 1.
//
// Winner selection follows the paper: among all hypotheses at or above
// the acceptance threshold t_ac, the one with the *lowest* support wins;
// ties prefer the hypothesis with more locks. This deliberately prefers
// the most specific rule the evidence still supports — the naive
// highest-support strategy would always pick "no lock" or a too-weak
// prefix rule and could never surface bugs (see NaiveSelect).
package core

import (
	"context"

	"lockdoc/internal/db"
)

// DefaultAcceptThreshold is the paper's t_ac, adopted from Engler et
// al.'s p_correct = 0.9.
const DefaultAcceptThreshold = 0.9

// Hypothesis is one candidate locking rule with its support.
type Hypothesis struct {
	Seq db.LockSeq // empty = "no lock needed"
	Sa  uint64
	Sr  float64
}

// NoLock reports whether this is the "no lock needed" hypothesis.
func (h *Hypothesis) NoLock() bool { return len(h.Seq) == 0 }

// Result of deriving rules for one observation group.
type Result struct {
	Group *db.ObsGroup
	Total uint64 // folded observations (the s_r denominator)
	// Hypotheses is the group's mined table after the reporting
	// cut-off, in unspecified order: it follows the miner's walk, and
	// results selected from one cached table share it. Ranked returns
	// the report order; treat the slice as read-only.
	Hypotheses []Hypothesis
	// Winner points into Hypotheses; it is never nil for Total > 0
	// because the "no lock" hypothesis always clears the threshold.
	Winner *Hypothesis
	// Reason records why Winner won.
	Reason Reason
}

// Derive enumerates locking-rule hypotheses for group g using the
// trie-based mining engine (see miner.go) and selects the winner;
// results are identical to the reference enumerator kept in
// deriveReference, up to hypothesis order.
//
// A single group is the unit of cancellation: Derive checks ctx once on
// entry and returns a zero Result (Group set, no hypotheses) if it is
// already cancelled, but never aborts mid-group — per-group mining is
// short and its partial state worthless.
func Derive(ctx context.Context, d *db.DB, g *db.ObsGroup, opt Options) Result {
	if ctxCancelled(ctx) {
		return Result{Group: g}
	}
	if err := d.Hydrate(g); err != nil {
		// A group whose observations cannot be materialized from the
		// store derives like an empty group; the store records the
		// failure (db.DB.HydrateErr) for the caller to surface.
		return Result{Group: g}
	}
	m := minerPool.Get().(*miner)
	res := mineOne(m, g, opt)
	minerPool.Put(m)
	return res
}

// ctxCancelled is the group-boundary cancellation check. For
// context.Background (and any context that can never be cancelled)
// Done returns nil and the check is a single comparison.
func ctxCancelled(ctx context.Context) bool {
	done := ctx.Done()
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// deriveReference is the original enumerate-then-score implementation.
// It is retained as the oracle the mining engine is equivalence-tested
// against (TestMinerMatchesReference, FuzzDeriveEquivalence) and as the
// fallback for groups whose sequences exceed the miner's bitmask width.
func deriveReference(d *db.DB, g *db.ObsGroup, opt Options) Result {
	res := Result{Group: g, Total: g.Total}
	if g.Total == 0 {
		return res
	}
	hyps := referenceCandidates(g, opt)
	choose(&res, hyps[:0], hyps, opt)
	return res
}

// referenceCandidates enumerates candidate hypotheses from observed
// combinations through a signature-keyed map and scores each one
// against every observed sequence.
func referenceCandidates(g *db.ObsGroup, opt Options) []Hypothesis {
	cands := make(map[string]db.LockSeq)
	cands[""] = nil // "no lock needed"
	for _, so := range g.Seqs {
		seq := so.Seq
		if opt.MaxLocks > 0 && len(seq) > opt.MaxLocks {
			enumerateCapped(seq, opt.MaxLocks, cands)
			continue
		}
		enumerate(seq, cands)
	}
	hyps := make([]Hypothesis, 0, len(cands))
	for _, seq := range cands {
		var sa uint64
		for _, so := range g.Seqs {
			if isSubsequence(seq, so.Seq) {
				sa += so.Count
			}
		}
		hyps = append(hyps, Hypothesis{
			Seq: seq, Sa: sa, Sr: float64(sa) / float64(g.Total),
		})
	}
	return hyps
}

// enumerate adds every permutation of every subset of seq to out.
func enumerate(seq db.LockSeq, out map[string]db.LockSeq) {
	enumerateCapped(seq, len(seq), out)
}

// enumerateCapped bounds the subset size.
func enumerateCapped(seq db.LockSeq, maxLen int, out map[string]db.LockSeq) {
	n := len(seq)
	cur := make(db.LockSeq, 0, maxLen)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(cur) > 0 {
			sig := cur.Signature()
			if _, ok := out[sig]; !ok {
				out[sig] = append(db.LockSeq(nil), cur...)
			}
		}
		if len(cur) == maxLen {
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			cur = append(cur, seq[i])
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
}

// isSubsequence reports whether h occurs within s preserving order.
func isSubsequence(h, s db.LockSeq) bool {
	if len(h) == 0 {
		return true
	}
	j := 0
	for _, x := range s {
		if x == h[j] {
			j++
			if j == len(h) {
				return true
			}
		}
	}
	return false
}

// compareSeqSig orders two lock sequences exactly like comparing their
// Signature() strings ("<id>,<id>,..." in decimal), without building
// them — the hot sort comparator must not allocate.
func compareSeqSig(a, b db.LockSeq) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return compareIDSig(uint32(a[i]), uint32(b[i]))
		}
	}
	// Equal prefix: the shorter signature is a strict prefix of the
	// longer one and sorts first.
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// compareIDSig compares two distinct ids as their decimal renderings
// followed by the signature's ',' separator (so "1," < "12," because
// ',' precedes every digit).
func compareIDSig(a, b uint32) int {
	da, dbl := decimalLen(a), decimalLen(b)
	n := da
	if dbl < n {
		n = dbl
	}
	for i := 0; i < n; i++ {
		x := a / pow10[da-1-i] % 10
		y := b / pow10[dbl-1-i] % 10
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	}
	switch {
	case da < dbl:
		return -1
	case da > dbl:
		return 1
	}
	return 0
}

var pow10 = [...]uint32{1, 10, 100, 1000, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

func decimalLen(v uint32) int {
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

func sameSeq(a, b db.LockSeq) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Support computes the absolute and relative support of an arbitrary
// rule against a group's observations — the primitive behind the
// locking-rule checker (Sec. 5.5).
func Support(g *db.ObsGroup, rule db.LockSeq) (sa uint64, sr float64) {
	if g == nil || g.Total == 0 {
		return 0, 0
	}
	for _, so := range g.Seqs {
		if isSubsequence(rule, so.Seq) {
			sa += so.Count
		}
	}
	return sa, float64(sa) / float64(g.Total)
}

// DeriveAll derives rules for every observation group of the database
// in the database's stable group order. It is the single full-store
// derivation entry point: Options.Parallelism sets how many workers
// take groups from the pass's one claim cursor (see shard.go; 1 mines
// on the caller's goroutine, 0 = GOMAXPROCS workers), and every worker
// count produces element-for-element identical output — every group is
// an independent unit of work written to its own slice index, and
// per-group mining is deterministic (the root package's TestOracle
// pins this at several worker counts and option sets on every input).
//
// Cancellation is checked at every claim that finds a group: when ctx
// is cancelled, DeriveAll stops claiming groups and returns
// (nil, ctx.Err()) without waiting out the remaining work beyond the
// groups already mid-mine. A pass that has claimed its last group
// returns its results.
// With an uncancellable context (context.Background) the check costs a
// single comparison per group and the returned error is always nil.
func DeriveAll(ctx context.Context, d *db.DB, opt Options) ([]Result, error) {
	groups := d.Groups()
	out := make([]Result, len(groups))
	if err := mineAll(ctx, d, groups, nil, out, opt); err != nil {
		return nil, err
	}
	return out, nil
}
