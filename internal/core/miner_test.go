package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lockdoc/internal/db"
	"lockdoc/internal/trace"
)

// minerOptMatrix is the option grid the equivalence tests sweep: the
// defaults, cut-offs on both sides of t_ac (the pruning bound is their
// minimum), length caps, and the naive selection strategy.
var minerOptMatrix = []Options{
	{},
	{AcceptThreshold: 0.9},
	{AcceptThreshold: 0.7},
	{AcceptThreshold: 0.9, CutoffThreshold: 0.1},
	{AcceptThreshold: 0.9, CutoffThreshold: 0.5},
	{AcceptThreshold: 0.7, CutoffThreshold: 0.95},
	{AcceptThreshold: 0.9, MaxLocks: 1},
	{AcceptThreshold: 0.9, MaxLocks: 2},
	{AcceptThreshold: 0.9, MaxLocks: 3, CutoffThreshold: 0.2},
	{AcceptThreshold: 0.9, Naive: true},
	{AcceptThreshold: 0.9, Naive: true, CutoffThreshold: 0.3},
}

// checkMinerEquivalence derives g with both engines and fails on the
// first field-level difference.
func checkMinerEquivalence(t *testing.T, label string, d *db.DB, g *db.ObsGroup, opt Options) {
	t.Helper()
	want := deriveReference(d, g, opt)
	got := Derive(context.Background(), d, g, opt)
	sameResults(t, label+"/"+opt.Key(), []Result{want}, []Result{got})
}

// TestMinerMatchesReference pins the mining engine to the reference
// enumerator on every group of the event-path fixture and both golden
// traces, across the whole option matrix.
func TestMinerMatchesReference(t *testing.T) {
	stores := map[string]*db.DB{"fixture": fixtureDB(t)}
	for name, d := range goldenDBs(t) {
		stores[name] = d
	}
	for name, d := range stores {
		for _, g := range d.Groups() {
			for _, opt := range minerOptMatrix {
				checkMinerEquivalence(t, name, d, g, opt)
			}
		}
	}
}

// TestMinerHandBuiltEdgeCases covers group shapes the event path never
// produces: duplicate locks inside one acquisition sequence (the trie
// must treat candidates as permutations of sub-multisets) and lock-free
// observations mixed in.
func TestMinerHandBuiltEdgeCases(t *testing.T) {
	cases := []map[string]uint64{
		{"a,a": 10},
		{"a,a": 10, "a": 3},
		{"a,a,b": 7, "b,a,a": 2, "a,b,a": 1},
		{"a,b,c,a": 5, "c,a": 4, "": 1},
		{"": 42},
		{"a": 1},
		{"a,b,c,d,e": 3, "e,d,c,b,a": 3},
	}
	for i, seqs := range cases {
		d := db.New(db.Config{})
		g := buildGroup(d, seqs)
		for _, opt := range minerOptMatrix {
			checkMinerEquivalence(t, fmt.Sprintf("case%d", i), d, g, opt)
		}
	}
}

// randomGroup builds an observation group with nSeqs random sequences
// over nKeys locks; sequences may repeat a lock (duplicates).
func randomGroup(rng *rand.Rand, d *db.DB, nKeys, maxSeqLen, nSeqs int) *db.ObsGroup {
	keys := make([]db.KeyID, nKeys)
	for i := range keys {
		keys[i] = d.InternKey(db.LockKey{Kind: db.Global, Class: trace.LockSpin, Name: fmt.Sprintf("L%d", i)})
	}
	g := &db.ObsGroup{Seqs: make(map[string]*db.SeqObs)}
	for i := 0; i < nSeqs; i++ {
		n := rng.Intn(maxSeqLen + 1)
		seq := make(db.LockSeq, 0, n)
		for j := 0; j < n; j++ {
			seq = append(seq, keys[rng.Intn(nKeys)])
		}
		count := uint64(rng.Intn(5) + 1)
		sig := seq.Signature()
		if so, ok := g.Seqs[sig]; ok {
			so.Count += count
		} else {
			g.Seqs[sig] = &db.SeqObs{Seq: seq, Count: count}
		}
		g.Total += count
	}
	return g
}

// TestMinerRandomizedEquivalence sweeps randomized groups (duplicate
// locks included) against the full option matrix plus randomized
// thresholds.
func TestMinerRandomizedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := db.New(db.Config{})
		g := randomGroup(rng, d, 2+rng.Intn(5), 1+rng.Intn(6), 1+rng.Intn(8))
		label := fmt.Sprintf("seed%d", seed)
		for _, opt := range minerOptMatrix {
			checkMinerEquivalence(t, label, d, g, opt)
		}
		randOpt := Options{
			AcceptThreshold: 0.5 + rng.Float64()/2,
			CutoffThreshold: rng.Float64() * 1.1, // occasionally above 1
			MaxLocks:        rng.Intn(5),
			Naive:           rng.Intn(2) == 0,
		}
		checkMinerEquivalence(t, label+"/rand", d, g, randOpt)
	}
}

// TestMinerLongSequenceFallback drives a group beyond the projection
// bitmask width (64 positions); derive must transparently fall back to
// the reference enumerator.
func TestMinerLongSequenceFallback(t *testing.T) {
	d := db.New(db.Config{})
	long := make([]string, 70)
	for i := range long {
		long[i] = fmt.Sprintf("k%02d", i)
	}
	g := buildGroup(d, map[string]uint64{
		strings.Join(long, ","):     6,
		strings.Join(long[:3], ","): 4,
	})
	for _, opt := range []Options{
		{AcceptThreshold: 0.9, MaxLocks: 1},
		{AcceptThreshold: 0.9, MaxLocks: 2, CutoffThreshold: 0.3},
	} {
		checkMinerEquivalence(t, "long", d, g, opt)
	}

	// The fallback leaves the trie arena empty, so the trie-node
	// instrument records 0 for the group, not the previous group's count.
	var m miner
	m.derive(buildGroup(d, map[string]uint64{"a,b": 1}), Options{AcceptThreshold: 0.9})
	m.derive(g, Options{AcceptThreshold: 0.9, MaxLocks: 1})
	if len(m.nodes) != 0 {
		t.Errorf("fallback group left %d trie nodes in the arena", len(m.nodes))
	}
}

// TestMinerMaskWidthBoundary mines sequences of exactly 63 and 64
// positions, where the position mask 1<<n - 1 and the match mask
// ^0 << pos reach the word size; one position more falls back to the
// reference enumerator. Each group adds the long sequence's last three
// locks in reverse, so a match can end at position 64.
func TestMinerMaskWidthBoundary(t *testing.T) {
	seqOf := func(n int, name func(i int) string) []string {
		s := make([]string, n)
		for i := range s {
			s[i] = name(i)
		}
		return s
	}
	one := func(int) string { return "a" }
	distinct := func(i int) string { return fmt.Sprintf("k%02d", i) }
	wrapped := seqOf(64, distinct)
	wrapped[63] = wrapped[0]
	for name, long := range map[string][]string{
		"same63":     seqOf(63, one),
		"same64":     seqOf(64, one),
		"distinct63": seqOf(63, distinct),
		"distinct64": seqOf(64, distinct),
		"wrapped64":  wrapped,
	} {
		n := len(long)
		tail := []string{long[n-1], long[n-2], long[n-3]}
		d := db.New(db.Config{})
		g := buildGroup(d, map[string]uint64{
			strings.Join(long, ","): 6,
			strings.Join(tail, ","): 4,
		})
		for _, opt := range []Options{
			{AcceptThreshold: 0.9, MaxLocks: 1},
			{AcceptThreshold: 0.9, MaxLocks: 2},
			{AcceptThreshold: 0.9, MaxLocks: 3, CutoffThreshold: 0.3},
		} {
			checkMinerEquivalence(t, name, d, g, opt)
		}
	}
}

// TestCompareSeqSig pins the allocation-free comparator to the string
// comparison of Signature() it replaces.
func TestCompareSeqSig(t *testing.T) {
	ids := []db.KeyID{0, 1, 2, 9, 10, 11, 19, 99, 100, 123, 1000}
	rng := rand.New(rand.NewSource(3))
	seqs := []db.LockSeq{nil, {}}
	for i := 0; i < 200; i++ {
		n := rng.Intn(5)
		s := make(db.LockSeq, n)
		for j := range s {
			s[j] = ids[rng.Intn(len(ids))]
		}
		seqs = append(seqs, s)
	}
	sign := func(x int) int {
		switch {
		case x < 0:
			return -1
		case x > 0:
			return 1
		}
		return 0
	}
	for _, a := range seqs {
		for _, b := range seqs {
			want := sign(strings.Compare(a.Signature(), b.Signature()))
			if got := sign(compareSeqSig(a, b)); got != want {
				t.Fatalf("compareSeqSig(%v, %v) = %d, want %d (sigs %q vs %q)",
					a, b, got, want, a.Signature(), b.Signature())
			}
		}
	}
}

// FuzzDeriveEquivalence fuzzes group shapes and thresholds: the mining
// engine must agree with the reference enumerator on every input.
func FuzzDeriveEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xFF, 2, 1, 0}, uint8(90), uint8(10), uint8(0), false)
	f.Add([]byte{0, 0, 1, 0xFF, 1, 0, 0, 0xFF}, uint8(75), uint8(50), uint8(2), true)
	f.Add([]byte{5, 4, 3, 2, 1, 0, 0xFF, 0, 1, 2, 3, 4, 5}, uint8(99), uint8(0), uint8(3), false)
	f.Fuzz(func(t *testing.T, data []byte, tacU, tcoU, maxLocks uint8, naive bool) {
		const nKeys = 6
		d := db.New(db.Config{})
		keys := make([]db.KeyID, nKeys)
		for i := range keys {
			keys[i] = d.InternKey(db.LockKey{Kind: db.Global, Class: trace.LockSpin, Name: fmt.Sprintf("F%d", i)})
		}
		g := &db.ObsGroup{Seqs: make(map[string]*db.SeqObs)}
		var cur db.LockSeq
		nSeqs := 0
		commit := func() {
			if nSeqs >= 8 {
				return
			}
			nSeqs++
			seq := append(db.LockSeq(nil), cur...)
			sig := seq.Signature()
			if so, ok := g.Seqs[sig]; ok {
				so.Count++
			} else {
				g.Seqs[sig] = &db.SeqObs{Seq: seq, Count: 1}
			}
			g.Total++
		}
		for _, b := range data {
			if b == 0xFF {
				commit()
				cur = cur[:0]
				continue
			}
			if len(cur) < 7 {
				cur = append(cur, keys[int(b)%nKeys])
			}
		}
		commit()
		opt := Options{
			AcceptThreshold: 0.5 + float64(tacU%50)/100,
			CutoffThreshold: float64(tcoU%120) / 100,
			MaxLocks:        int(maxLocks % 5),
			Naive:           naive,
		}
		want := deriveReference(d, g, opt)
		got := Derive(context.Background(), d, g, opt)
		if len(want.Hypotheses) != len(got.Hypotheses) {
			t.Fatalf("hypothesis count: reference %d, miner %d", len(want.Hypotheses), len(got.Hypotheses))
		}
		wr, gr := Ranked(want.Hypotheses), Ranked(got.Hypotheses)
		for i := range wr {
			a, b := wr[i], gr[i]
			if a.Sa != b.Sa || a.Sr != b.Sr || !sameSeq(a.Seq, b.Seq) {
				t.Fatalf("hypothesis %d differs: reference %+v, miner %+v", i, *a, *b)
			}
		}
		switch {
		case (want.Winner == nil) != (got.Winner == nil):
			t.Fatalf("winner nil-ness differs")
		case want.Winner != nil &&
			(want.Winner.Sa != got.Winner.Sa || !sameSeq(want.Winner.Seq, got.Winner.Seq)):
			t.Fatalf("winners differ: reference %+v, miner %+v", *want.Winner, *got.Winner)
		case want.Reason != got.Reason:
			t.Fatalf("reasons differ: reference %v, miner %v", want.Reason, got.Reason)
		}
	})
}
