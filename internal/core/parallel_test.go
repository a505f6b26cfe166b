package core

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lockdoc/internal/db"
	"lockdoc/internal/trace"
)

// fixtureDB builds a store with several observation groups through the
// real event path — the same shape as the analysis-package fixture:
// clean rules, ambivalent rules and multi-lock sequences.
func fixtureDB(t testing.TB) *db.DB {
	t.Helper()
	d := db.New(db.Config{SubclassedTypes: []string{"inode"}})
	seq := uint64(0)
	add := func(ev trace.Event) {
		seq++
		ev.Seq, ev.TS = seq, seq
		if err := d.Add(&ev); err != nil {
			t.Fatal(err)
		}
	}
	add(trace.Event{Kind: trace.KindDefType, TypeID: 1, TypeName: "inode", Members: []trace.MemberDef{
		{Name: "i_state", Offset: 0, Size: 8},
		{Name: "i_size", Offset: 8, Size: 8},
		{Name: "i_lock", Offset: 16, Size: 8, IsLock: true},
	}})
	add(trace.Event{Kind: trace.KindDefType, TypeID: 2, TypeName: "dentry", Members: []trace.MemberDef{
		{Name: "d_flags", Offset: 0, Size: 8},
		{Name: "d_count", Offset: 8, Size: 8},
	}})
	add(trace.Event{Kind: trace.KindDefFunc, FuncID: 1, File: "fs/inode.c", Line: 100, Func: "inode_op"})
	add(trace.Event{Kind: trace.KindDefStack, StackID: 1, StackFuncs: []uint32{1}})
	add(trace.Event{Kind: trace.KindAlloc, Ctx: 1, AllocID: 1, TypeID: 1, Addr: 0x1000, Size: 32, Subclass: "ext4"})
	add(trace.Event{Kind: trace.KindAlloc, Ctx: 1, AllocID: 2, TypeID: 2, Addr: 0x2000, Size: 16})
	add(trace.Event{Kind: trace.KindDefLock, LockID: 1, LockName: "i_lock", Class: trace.LockSpin, LockAddr: 0x1010, OwnerAddr: 0x1000})
	add(trace.Event{Kind: trace.KindDefLock, LockID: 2, LockName: "d_lock", Class: trace.LockSpin, LockAddr: 0x300})
	add(trace.Event{Kind: trace.KindDefLock, LockID: 3, LockName: "rename_lock", Class: trace.LockMutex, LockAddr: 0x400})

	// i_state: writes under i_lock, one unprotected (ambivalent).
	for i := 0; i < 19; i++ {
		add(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: 1, FuncID: 1})
		add(trace.Event{Kind: trace.KindWrite, Ctx: 1, Addr: 0x1000, AccessSize: 8, FuncID: 1, StackID: 1})
		add(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: 1, FuncID: 1})
	}
	add(trace.Event{Kind: trace.KindWrite, Ctx: 1, Addr: 0x1000, AccessSize: 8, FuncID: 1, StackID: 1})
	// i_size: reads under rename_lock -> i_lock (a two-lock rule).
	for i := 0; i < 10; i++ {
		add(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: 3, FuncID: 1})
		add(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: 1, FuncID: 1})
		add(trace.Event{Kind: trace.KindRead, Ctx: 1, Addr: 0x1008, AccessSize: 8, FuncID: 1, StackID: 1})
		add(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: 1, FuncID: 1})
		add(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: 3, FuncID: 1})
	}
	// dentry: d_flags under d_lock, d_count lock-free.
	for i := 0; i < 8; i++ {
		add(trace.Event{Kind: trace.KindAcquire, Ctx: 2, LockID: 2, FuncID: 1})
		add(trace.Event{Kind: trace.KindWrite, Ctx: 2, Addr: 0x2000, AccessSize: 8, FuncID: 1, StackID: 1})
		add(trace.Event{Kind: trace.KindRelease, Ctx: 2, LockID: 2, FuncID: 1})
		add(trace.Event{Kind: trace.KindRead, Ctx: 2, Addr: 0x2008, AccessSize: 8, FuncID: 1, StackID: 1})
	}
	d.Flush()
	return d
}

// goldenDBs loads both archived golden traces into stores.
func goldenDBs(t testing.TB) map[string]*db.DB {
	t.Helper()
	out := make(map[string]*db.DB)
	for _, name := range []string{"clock_golden.lkdc", "clock_golden_v2.lkdc"} {
		raw, err := os.ReadFile(filepath.Join("..", "workload", "testdata", name))
		if err != nil {
			t.Fatalf("golden trace: %v", err)
		}
		r, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		d, err := db.Import(r, db.Config{})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = d
	}
	return out
}

// rankedHyps returns hyps by value in report order. Mining order is
// unspecified, so result comparisons go through Ranked, the ranking
// every renderer uses.
func rankedHyps(hyps []Hypothesis) []Hypothesis {
	out := make([]Hypothesis, 0, len(hyps))
	for _, h := range Ranked(hyps) {
		out = append(out, *h)
	}
	return out
}

// sameResults performs a field-by-field equality check between two
// derivation result sets, hypotheses in report order, including the
// winner identity and the reason it won.
func sameResults(t *testing.T, label string, seq, par []Result) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: sequential derived %d groups, parallel %d", label, len(seq), len(par))
	}
	for i := range seq {
		a, b := &seq[i], &par[i]
		if a.Group != b.Group {
			t.Fatalf("%s[%d]: group order diverged (%p vs %p)", label, i, a.Group, b.Group)
		}
		if a.Total != b.Total {
			t.Fatalf("%s[%d]: totals %d vs %d", label, i, a.Total, b.Total)
		}
		if ra, rb := rankedHyps(a.Hypotheses), rankedHyps(b.Hypotheses); !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%s[%d]: hypothesis lists differ:\n%v\n%v", label, i, ra, rb)
		}
		switch {
		case (a.Winner == nil) != (b.Winner == nil):
			t.Fatalf("%s[%d]: winner nil-ness differs", label, i)
		case a.Winner != nil && !reflect.DeepEqual(*a.Winner, *b.Winner):
			t.Fatalf("%s[%d]: winners differ: %v vs %v", label, i, *a.Winner, *b.Winner)
		case a.Reason != b.Reason:
			t.Fatalf("%s[%d]: reasons differ: %v vs %v", label, i, a.Reason, b.Reason)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	stores := map[string]*db.DB{"fixture": fixtureDB(t)}
	for name, d := range goldenDBs(t) {
		stores[name] = d
	}
	opts := []Options{
		{},
		{AcceptThreshold: 0.9},
		{AcceptThreshold: 0.75, CutoffThreshold: 0.1},
		{AcceptThreshold: 0.9, MaxLocks: 2},
		{AcceptThreshold: 0.9, Naive: true},
	}
	for name, d := range stores {
		for _, opt := range opts {
			seq := opt
			seq.Parallelism = 1
			want, err := DeriveAll(context.Background(), d, seq)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 2, 3, 8, 64} {
				opt.Parallelism = workers
				got, err := DeriveAll(context.Background(), d, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, name+"/"+opt.Key(), want, got)
			}
		}
	}
}

// Property: on randomized stores with many groups and long sequences,
// every worker count agrees with the sequential reference.
func TestParallelEqualityRandomized(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := db.New(db.Config{})
		seqNo := uint64(0)
		add := func(ev trace.Event) {
			seqNo++
			ev.Seq, ev.TS = seqNo, seqNo
			if err := d.Add(&ev); err != nil {
				t.Fatal(err)
			}
		}
		nTypes := 3 + rng.Intn(4)
		for ti := 0; ti < nTypes; ti++ {
			id := uint32(ti + 1)
			add(trace.Event{Kind: trace.KindDefType, TypeID: id, TypeName: "t" + string(rune('a'+ti)),
				Members: []trace.MemberDef{
					{Name: "m0", Offset: 0, Size: 8},
					{Name: "m1", Offset: 8, Size: 8},
				}})
			add(trace.Event{Kind: trace.KindAlloc, Ctx: 1, AllocID: uint64(id), TypeID: id,
				Addr: uint64(id) * 0x1000, Size: 16})
		}
		for li := uint64(1); li <= 6; li++ {
			add(trace.Event{Kind: trace.KindDefLock, LockID: li, LockName: "L" + string(rune('0'+li)),
				Class: trace.LockSpin, LockAddr: 0x100000 + li*8})
		}
		for i := 0; i < 300; i++ {
			ctx := uint32(1 + rng.Intn(3))
			held := rng.Perm(6)[:rng.Intn(5)]
			for _, l := range held {
				add(trace.Event{Kind: trace.KindAcquire, Ctx: ctx, LockID: uint64(l + 1)})
			}
			target := uint64(1 + rng.Intn(nTypes))
			kind := trace.KindRead
			if rng.Intn(2) == 0 {
				kind = trace.KindWrite
			}
			add(trace.Event{Kind: kind, Ctx: ctx, Addr: target*0x1000 + uint64(rng.Intn(2))*8, AccessSize: 8})
			for _, l := range held {
				add(trace.Event{Kind: trace.KindRelease, Ctx: ctx, LockID: uint64(l + 1)})
			}
		}
		d.Flush()

		opt := Options{AcceptThreshold: 0.9, Parallelism: 1}
		want, err := DeriveAll(context.Background(), d, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 7} {
			opt.Parallelism = workers
			got, err := DeriveAll(context.Background(), d, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "randomized", want, got)
		}
	}
}
