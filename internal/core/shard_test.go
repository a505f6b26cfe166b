package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"lockdoc/internal/db"
	"lockdoc/internal/obs"
)

// fakeGroup builds a hydrated group with one observed sequence of each
// given length, holding the locks 0, 1, ... in order.
func fakeGroup(lens ...int) *db.ObsGroup {
	g := &db.ObsGroup{Seqs: map[string]*db.SeqObs{}, Total: 1}
	for i, l := range lens {
		seq := make(db.LockSeq, l)
		for j := range seq {
			seq[j] = db.KeyID(j)
		}
		g.Seqs[string(rune('a'+i))] = &db.SeqObs{Seq: seq, Count: 1}
	}
	return g
}

// TestGroupWeight mines one heavy group among many light ones, the mix
// the claim order matters for: the worker that claims the heavy group
// is still mining it while the others drain the light ones, and every
// result must still land at its own group's index.
func TestGroupWeight(t *testing.T) {
	groups := []*db.ObsGroup{fakeGroup(7)} // heavy: ~13700 trie nodes
	for range 40 {
		groups = append(groups, fakeGroup(2)) // light: 5 nodes
	}
	opt := Options{AcceptThreshold: 0.9}
	want := make([]Result, len(groups))
	for i, g := range groups {
		want[i] = Derive(context.Background(), nil, g, opt)
	}
	for _, workers := range []int{1, 2, 4} {
		opt.Parallelism = workers
		out := make([]Result, len(groups))
		if err := mineAll(context.Background(), nil, groups, nil, out, opt); err != nil {
			t.Fatal(err)
		}
		sameResults(t, "heavy-among-light", want, out)
	}
}

// TestShardAssignmentBalances: goroutines claiming from one pass at
// once (run it under -race) together claim every index exactly once.
func TestShardAssignmentBalances(t *testing.T) {
	const n, claimers = 1000, 8
	p := &minePass{groups: make([]*db.ObsGroup, n)}
	claimed := make([][]int32, claimers)
	var wg sync.WaitGroup
	for c := range claimers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := p.claim(); gi >= 0; gi = p.claim() {
				claimed[c] = append(claimed[c], gi)
			}
		}()
	}
	wg.Wait()
	seen := make([]int, n)
	for _, cs := range claimed {
		for _, gi := range cs {
			seen[gi]++
		}
	}
	for gi, k := range seen {
		if k != 1 {
			t.Fatalf("group %d claimed %d times, want once", gi, k)
		}
	}
}

// TestClaimSteal drives a pass's claim from one goroutine: indices come
// in work-list order, for the full list and for a delta list, and a
// drained cursor yields nothing.
func TestClaimSteal(t *testing.T) {
	groups := make([]*db.ObsGroup, 6)
	for _, c := range []struct {
		name string
		work []int32
		want []int32
	}{
		{"full", nil, []int32{0, 1, 2, 3, 4, 5}},
		{"delta", []int32{1, 4, 5}, []int32{1, 4, 5}},
	} {
		p := &minePass{groups: groups, work: c.work}
		var got []int32
		for gi := p.claim(); gi >= 0; gi = p.claim() {
			got = append(got, gi)
		}
		if !slices.Equal(got, c.want) {
			t.Fatalf("%s: claimed %v, want %v", c.name, got, c.want)
		}
		if gi := p.claim(); gi >= 0 {
			t.Fatalf("%s: drained cursor still yielded group %d", c.name, gi)
		}
	}
}

// TestMineAllAccounting checks that every selected group is mined
// exactly once regardless of worker count, and that the work-list form
// (delta derivation) only mines the listed groups.
func TestMineAllAccounting(t *testing.T) {
	d := fixtureDB(t)
	view := d.Seal()
	groups := view.Groups()
	opt := Options{AcceptThreshold: 0.9}

	for _, workers := range []int{1, 2, 4, 9} {
		opt.Parallelism = workers
		opt.Metrics = NewMetrics(obs.NewRegistry())
		out := make([]Result, len(groups))
		if err := mineAll(context.Background(), view, groups, nil, out, opt); err != nil {
			t.Fatal(err)
		}
		if mined := opt.Metrics.GroupsMined.Value(); mined != uint64(len(groups)) {
			t.Fatalf("workers=%d: mined %d times for %d groups", workers, mined, len(groups))
		}
		for i := range out {
			if out[i].Group == nil {
				t.Fatalf("workers=%d: group %d never mined", workers, i)
			}
		}
	}

	// Work-list form: only the selected indices are touched.
	work := []int32{0}
	if len(groups) > 2 {
		work = append(work, int32(len(groups)-1))
	}
	out := make([]Result, len(groups))
	opt.Parallelism = 2
	opt.Metrics = NewMetrics(obs.NewRegistry())
	if err := mineAll(context.Background(), view, groups, work, out, opt); err != nil {
		t.Fatal(err)
	}
	if mined := opt.Metrics.GroupsMined.Value(); mined != uint64(len(work)) {
		t.Fatalf("work-list: mined %d times for %d selected groups", mined, len(work))
	}
	selected := map[int32]bool{}
	for _, gi := range work {
		selected[gi] = true
	}
	for i := range out {
		if mined := out[i].Group != nil; mined != selected[int32(i)] {
			t.Fatalf("work-list: group %d mined=%v, selected=%v", i, mined, selected[int32(i)])
		}
	}
}

// TestMineAllCancellation: a cancelled context aborts the parallel pass
// with ctx.Err just like the sequential path.
func TestMineAllCancellation(t *testing.T) {
	d := fixtureDB(t)
	view := d.Seal()
	groups := view.Groups()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3} {
		out := make([]Result, len(groups))
		err := mineAll(ctx, view, groups, nil, out, Options{AcceptThreshold: 0.9, Parallelism: workers})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// deepCopyResults copies results down to their hypothesis sequences,
// with each winner pointing into its copy.
func deepCopyResults(rs []Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		hyps := make([]Hypothesis, len(r.Hypotheses))
		for j, h := range r.Hypotheses {
			h.Seq = slices.Clone(h.Seq)
			hyps[j] = h
			if r.Winner == &r.Hypotheses[j] {
				r.Winner = &hyps[j]
			}
		}
		r.Hypotheses = hyps
		out[i] = r
	}
	return out
}

// TestInternerSharesKeptSequences: pruned results own their memory. A
// pass with a cut-off keeps few hypotheses per group, and nothing of
// them may alias a buffer of the miner that mined them: a later pass
// on the same pooled miners leaves them untouched.
func TestInternerSharesKeptSequences(t *testing.T) {
	view := fixtureDB(t).Seal()
	other := goldenDBs(t)["clock_golden_v2.lkdc"]
	for _, workers := range []int{1, 2} {
		opt := Options{AcceptThreshold: 0.9, CutoffThreshold: 0.1, Parallelism: workers}
		first, err := DeriveAll(context.Background(), view, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Result, len(first))
		for i, g := range view.Groups() {
			want[i] = deriveReference(view, g, opt)
		}
		sameResults(t, "pruned-vs-reference", want, first)

		snap := deepCopyResults(first)
		if _, err := DeriveAll(context.Background(), other, opt); err != nil {
			t.Fatal(err)
		}
		sameResults(t, "pruned-after-second-pass", snap, first)
	}
}

// failingSource is a state GroupSource whose every hydration fails.
type failingSource struct{ error }

func (f failingSource) HydrateGroup(int, *db.ObsGroup) error { return f.error }

// TestDeriveAllReturnsHydrationError: a group that fails to hydrate
// fails the pass, on one worker and on several alike.
func TestDeriveAllReturnsHydrationError(t *testing.T) {
	view := fixtureDB(t).Seal()
	meta := view.AppendStateMeta(nil)
	chunk := func(j int) ([]byte, error) { return view.AppendDefChunk(nil, j), nil }
	for _, workers := range []int{1, 2} {
		src := failingSource{errors.New("group block unreadable")}
		d, err := db.DecodeState(meta, chunk, src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err = DeriveAll(context.Background(), d, Options{Parallelism: workers}); !errors.Is(err, src.error) {
			t.Errorf("workers %d: DeriveAll = %v, want the hydration error", workers, err)
		}
	}
}
