package core

import (
	"context"
	"errors"
	"testing"

	"lockdoc/internal/db"
)

// fakeGroup builds a hydrated group whose observed sequences have the
// given lengths — enough for groupWeight and shard assignment, which
// never look at the keys themselves.
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

func TestGroupWeight(t *testing.T) {
	// A lazy stub (Seqs nil) falls back to the observation count.
	stub := &db.ObsGroup{Total: 41}
	if w := groupWeight(stub); w != 42 {
		t.Fatalf("stub weight = %v, want 42", w)
	}
	// Hydrated weight is monotone in sequence length: each extra held
	// lock multiplies the candidate permutation space.
	prev := 0.0
	for l := 0; l <= 10; l++ {
		w := groupWeight(fakeGroup(l))
		if w <= prev {
			t.Fatalf("weight(len=%d) = %v, not above weight(len=%d) = %v", l, w, l-1, prev)
		}
		prev = w
	}
	// Beyond the trieCost table the estimate keeps growing, so a
	// pathological group still lands alone on a shard.
	if a, b := groupWeight(fakeGroup(12)), groupWeight(fakeGroup(20)); b <= a {
		t.Fatalf("beyond-table weights not monotone: %v then %v", a, b)
	}
}

// TestShardAssignmentBalances checks the greedy assignment: with one
// heavy group and many light ones, the heavy group's shard receives
// (almost) nothing else.
func TestShardAssignmentBalances(t *testing.T) {
	groups := []*db.ObsGroup{fakeGroup(7)} // heavy: ~13700 nodes
	for i := 0; i < 40; i++ {
		groups = append(groups, fakeGroup(2)) // light: 5 nodes
	}
	out := make([]Result, len(groups))
	e := newMineEngine(context.Background(), nil, groups, nil, out, Options{}, nil, 4)

	var heavyShard *mineShard
	total := 0
	for s := range e.shards {
		total += len(e.shards[s].items)
		for _, gi := range e.shards[s].items {
			if gi == 0 {
				heavyShard = &e.shards[s]
			}
		}
	}
	if total != len(groups) {
		t.Fatalf("assignment lost groups: %d shard items, %d groups", total, len(groups))
	}
	if heavyShard == nil {
		t.Fatal("heavy group not assigned to any shard")
	}
	if n := len(heavyShard.items); n != 1 {
		t.Fatalf("heavy group shares its shard with %d light groups; greedy balancing should isolate it", n-1)
	}
}

// TestClaimSteal drives the claim protocol synchronously from one
// goroutine, so steal order is deterministic: a worker drains its own
// shard first, then scans the victims round-robin from its right
// neighbour and takes their unclaimed tails.
func TestClaimSteal(t *testing.T) {
	groups := make([]*db.ObsGroup, 6)
	for i := range groups {
		groups[i] = fakeGroup(1)
	}
	e := &mineEngine{
		groups: groups,
		shards: make([]mineShard, 3),
	}
	e.shards[0].items = []int32{0, 1}
	e.shards[1].items = []int32{2, 3}
	e.shards[2].items = []int32{4, 5}

	ownDone := false
	type claim struct {
		gi    int32
		stole bool
	}
	var got []claim
	for {
		gi, stole := e.claim(0, &ownDone)
		if gi < 0 {
			break
		}
		got = append(got, claim{gi, stole})
	}
	want := []claim{{0, false}, {1, false}, {2, true}, {3, true}, {4, true}, {5, true}}
	if len(got) != len(want) {
		t.Fatalf("claimed %d groups, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("claim %d = %+v, want %+v (full: %v)", i, got[i], want[i], got)
		}
	}
	// The engine is drained: another worker finds nothing either.
	otherDone := false
	if gi, _ := e.claim(1, &otherDone); gi >= 0 {
		t.Fatalf("drained engine still yielded group %d", gi)
	}
}

// TestMineAllAccounting checks that every selected group is claimed
// exactly once regardless of worker count, and that the work-list form
// (delta derivation) only mines the listed groups.
func TestMineAllAccounting(t *testing.T) {
	d := fixtureDB(t)
	view := d.Seal()
	groups := view.Groups()
	opt := Options{AcceptThreshold: 0.9}

	for _, workers := range []int{1, 2, 4, 9} {
		opt.Parallelism = workers
		out := make([]Result, len(groups))
		stats, err := mineAll(context.Background(), view, groups, nil, out, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.claims != uint64(len(groups)) {
			t.Fatalf("workers=%d: %d claims for %d groups", workers, stats.claims, len(groups))
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
	stats, err := mineAll(context.Background(), view, groups, work, out, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.claims != uint64(len(work)) {
		t.Fatalf("work-list: %d claims for %d selected groups", stats.claims, len(work))
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
		_, err := mineAll(ctx, view, groups, nil, out, Options{AcceptThreshold: 0.9, Parallelism: workers}, nil)
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestInternerSharesKeptSequences: in prune mode the kept hypothesis
// sequences of equal content are the same backing array after a pass,
// across groups and across passes of one DeltaDeriver.
func TestInternerSharesKeptSequences(t *testing.T) {
	tab := newSeqTable()
	si := tab.interner()
	a := si.intern(db.LockSeq{1, 2, 3})
	b := si.intern(db.LockSeq{1, 2, 3})
	if &a[0] != &b[0] {
		t.Fatal("equal sequences interned to distinct arrays")
	}
	if got := si.intern(nil); got != nil {
		t.Fatalf("interning an empty sequence returned %v", got)
	}

	// After a merge, a fresh interner resolves the same content from the
	// shared frozen table without copying again.
	tab.merge([]*seqInterner{si}, nil)
	si2 := tab.interner()
	c := si2.intern(db.LockSeq{1, 2, 3})
	if &a[0] != &c[0] {
		t.Fatal("post-merge interner did not reuse the frozen sequence")
	}
}

// failingSource is a state GroupSource whose every hydration fails.
type failingSource struct{ error }

func (f failingSource) HydrateGroup(int, *db.ObsGroup) error { return f.error }

// TestDeriveAllReturnsHydrationError: a group that fails to hydrate
// fails the pass, on the sequential path and in the engine alike.
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
