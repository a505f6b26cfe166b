package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"lockdoc/internal/db"
	"lockdoc/internal/trace"
)

// buildGroup constructs an observation group directly (bypassing trace
// import) from (sequence, count) pairs over named global locks.
func buildGroup(d *db.DB, seqs map[string]uint64) *db.ObsGroup {
	g := &db.ObsGroup{
		Key:  db.GroupKey{TypeID: 1, Write: true},
		Type: nil,
		Seqs: make(map[string]*db.SeqObs),
	}
	for names, count := range seqs {
		var seq db.LockSeq
		if names != "" {
			for _, n := range splitComma(names) {
				seq = append(seq, d.InternKey(db.LockKey{Kind: db.Global, Class: trace.LockSpin, Name: n}))
			}
		}
		g.Seqs[seq.Signature()] = &db.SeqObs{Seq: seq, Count: count}
		g.Total += count
	}
	return g
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// TestPaperTable2 replicates Tab. 2 of the paper: hypotheses for writing
// `minutes` with 16 correct [sec_lock -> min_lock] transactions and one
// faulty [sec_lock] transaction.
func TestPaperTable2(t *testing.T) {
	d := db.New(db.Config{})
	g := buildGroup(d, map[string]uint64{
		"sec_lock,min_lock": 16,
		"sec_lock":          1,
	})
	res := Derive(context.Background(), d, g, Options{AcceptThreshold: 0.9})

	want := map[string]struct {
		sa uint64
		sr float64
	}{
		"no locks":             {17, 1.0},
		"sec_lock":             {17, 1.0},
		"sec_lock -> min_lock": {16, 16.0 / 17.0},
		"min_lock":             {16, 16.0 / 17.0},
		"min_lock -> sec_lock": {0, 0},
	}
	if len(res.Hypotheses) != len(want) {
		t.Errorf("got %d hypotheses, want %d", len(res.Hypotheses), len(want))
	}
	for _, h := range res.Hypotheses {
		name := d.SeqString(h.Seq)
		w, ok := want[name]
		if !ok {
			t.Errorf("unexpected hypothesis %q", name)
			continue
		}
		if h.Sa != w.sa {
			t.Errorf("hypothesis %q: sa = %d, want %d", name, h.Sa, w.sa)
		}
		if diff := h.Sr - w.sr; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("hypothesis %q: sr = %f, want %f", name, h.Sr, w.sr)
		}
	}

	// The paper's strategy picks sec_lock -> min_lock: the lowest
	// support above t_ac, ties broken toward more locks.
	if res.Winner == nil {
		t.Fatal("no winner")
	}
	if got := d.SeqString(res.Winner.Seq); got != "sec_lock -> min_lock" {
		t.Errorf("winner = %q, want sec_lock -> min_lock", got)
	}
}

// TestNaiveStrategyFails shows why the naive highest-support strategy is
// the wrong tool: it picks the weaker sec_lock rule, hiding the bug.
func TestNaiveStrategyFails(t *testing.T) {
	d := db.New(db.Config{})
	g := buildGroup(d, map[string]uint64{
		"sec_lock,min_lock": 16,
		"sec_lock":          1,
	})
	res := Derive(context.Background(), d, g, Options{AcceptThreshold: 0.9, Naive: true})
	if res.Winner == nil {
		t.Fatal("no winner")
	}
	if got := d.SeqString(res.Winner.Seq); got != "sec_lock" {
		t.Errorf("naive winner = %q, want sec_lock (the dominating but wrong rule)", got)
	}
}

func TestNoLockWinsWhenNothingClears(t *testing.T) {
	d := db.New(db.Config{})
	// Half the observations hold a, half hold b: no non-empty hypothesis
	// reaches 90%.
	g := buildGroup(d, map[string]uint64{"a": 10, "b": 10})
	res := Derive(context.Background(), d, g, Options{AcceptThreshold: 0.9})
	if res.Winner == nil || !res.Winner.NoLock() {
		t.Errorf("winner = %v, want no-lock", res.Winner)
	}
}

func TestPerfectRuleWins(t *testing.T) {
	d := db.New(db.Config{})
	g := buildGroup(d, map[string]uint64{"a,b": 100})
	res := Derive(context.Background(), d, g, Options{AcceptThreshold: 0.9})
	if got := d.SeqString(res.Winner.Seq); got != "a -> b" {
		t.Errorf("winner = %q, want a -> b", got)
	}
	if res.Winner.Sr != 1.0 {
		t.Errorf("winner sr = %f, want 1", res.Winner.Sr)
	}
}

func TestThresholdControlsWinner(t *testing.T) {
	d := db.New(db.Config{})
	// 80% of observations hold the lock.
	g := buildGroup(d, map[string]uint64{"a": 80, "": 20})
	strict := Derive(context.Background(), d, g, Options{AcceptThreshold: 0.9})
	if !strict.Winner.NoLock() {
		t.Errorf("t_ac=0.9 winner = %q, want no-lock", d.SeqString(strict.Winner.Seq))
	}
	lax := Derive(context.Background(), d, g, Options{AcceptThreshold: 0.7})
	if d.SeqString(lax.Winner.Seq) != "a" {
		t.Errorf("t_ac=0.7 winner = %q, want a", d.SeqString(lax.Winner.Seq))
	}
}

func TestEmptyGroup(t *testing.T) {
	d := db.New(db.Config{})
	g := &db.ObsGroup{Seqs: map[string]*db.SeqObs{}}
	res := Derive(context.Background(), d, g, Options{})
	if res.Winner != nil || len(res.Hypotheses) != 0 {
		t.Error("empty group must yield no winner and no hypotheses")
	}
}

func TestCutoffKeepsWinner(t *testing.T) {
	d := db.New(db.Config{})
	g := buildGroup(d, map[string]uint64{
		"a,b": 95,
		"c":   5,
	})
	res := Derive(context.Background(), d, g, Options{AcceptThreshold: 0.9, CutoffThreshold: 0.5})
	for _, h := range res.Hypotheses {
		if h.Sr < 0.5 && !sameSeq(h.Seq, res.Winner.Seq) {
			t.Errorf("hypothesis %q below cutoff retained", d.SeqString(h.Seq))
		}
	}
	// Winner must survive the cutoff and point into the retained slice.
	found := false
	for i := range res.Hypotheses {
		if &res.Hypotheses[i] == res.Winner {
			found = true
		}
	}
	if !found {
		t.Error("winner does not point into retained hypotheses")
	}
}

func TestMaxLocksCapsEnumeration(t *testing.T) {
	d := db.New(db.Config{})
	g := buildGroup(d, map[string]uint64{"a,b,c,d,e,f": 10})
	res := Derive(context.Background(), d, g, Options{AcceptThreshold: 0.9, MaxLocks: 2})
	for _, h := range res.Hypotheses {
		if len(h.Seq) > 2 {
			t.Errorf("hypothesis %q exceeds MaxLocks", d.SeqString(h.Seq))
		}
	}
}

func TestIsSubsequence(t *testing.T) {
	cases := []struct {
		h, s string
		want bool
	}{
		{"", "a,b", true},
		{"a", "a,b", true},
		{"b", "a,b", true},
		{"a,b", "a,b", true},
		{"a,b", "a,c,b", true},
		{"b,a", "a,b", false},
		{"a,b", "b", false},
		{"a", "", false},
		{"a,a", "a", false},
	}
	d := db.New(db.Config{})
	mk := func(names string) db.LockSeq {
		var seq db.LockSeq
		for _, n := range splitComma(names) {
			seq = append(seq, d.InternKey(db.LockKey{Kind: db.Global, Name: n}))
		}
		return seq
	}
	for _, c := range cases {
		if got := isSubsequence(mk(c.h), mk(c.s)); got != c.want {
			t.Errorf("isSubsequence(%q, %q) = %v, want %v", c.h, c.s, got, c.want)
		}
	}
}

func TestEnumerationCoversAllPermutations(t *testing.T) {
	d := db.New(db.Config{})
	a := d.InternKey(db.LockKey{Kind: db.Global, Name: "a"})
	b := d.InternKey(db.LockKey{Kind: db.Global, Name: "b"})
	c := d.InternKey(db.LockKey{Kind: db.Global, Name: "c"})
	out := make(map[string]db.LockSeq)
	enumerate(db.LockSeq{a, b, c}, out)
	// Subsets of size 1: 3, size 2: 6, size 3: 6 — 15 non-empty.
	if len(out) != 15 {
		t.Errorf("enumerated %d hypotheses, want 15", len(out))
	}
}

// Property: the support of a hypothesis never increases when a lock is
// appended (rule specificity is monotone).
func TestSupportMonotoneProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := db.New(db.Config{})
		keys := make([]db.KeyID, 5)
		for i := range keys {
			keys[i] = d.InternKey(db.LockKey{Kind: db.Global, Name: string(rune('a' + i))})
		}
		g := &db.ObsGroup{Seqs: make(map[string]*db.SeqObs)}
		for i := 0; i < 10; i++ {
			n := rng.Intn(4)
			perm := rng.Perm(5)
			var seq db.LockSeq
			for _, p := range perm[:n] {
				seq = append(seq, keys[p])
			}
			count := uint64(rng.Intn(20) + 1)
			sig := seq.Signature()
			if so, ok := g.Seqs[sig]; ok {
				so.Count += count
			} else {
				g.Seqs[sig] = &db.SeqObs{Seq: seq, Count: count}
			}
			g.Total += count
		}
		// Random hypothesis h and extension h+k.
		var h db.LockSeq
		for _, p := range rng.Perm(5)[:rng.Intn(3)] {
			h = append(h, keys[p])
		}
		ext := append(append(db.LockSeq(nil), h...), keys[rng.Intn(5)])
		saH, _ := Support(g, h)
		saE, _ := Support(g, ext)
		return saE <= saH
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the winner always has Sr >= t_ac; and with the LockDoc
// strategy no hypothesis above t_ac has lower support than the winner.
func TestWinnerInvariantProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := db.New(db.Config{})
		keys := make([]db.KeyID, 4)
		for i := range keys {
			keys[i] = d.InternKey(db.LockKey{Kind: db.Global, Name: string(rune('a' + i))})
		}
		g := &db.ObsGroup{Seqs: make(map[string]*db.SeqObs)}
		for i := 0; i < 6; i++ {
			n := rng.Intn(4)
			perm := rng.Perm(4)
			var seq db.LockSeq
			for _, p := range perm[:n] {
				seq = append(seq, keys[p])
			}
			count := uint64(rng.Intn(30) + 1)
			sig := seq.Signature()
			if so, ok := g.Seqs[sig]; ok {
				so.Count += count
			} else {
				g.Seqs[sig] = &db.SeqObs{Seq: seq, Count: count}
			}
			g.Total += count
		}
		res := Derive(context.Background(), d, g, Options{AcceptThreshold: 0.9})
		if res.Winner == nil {
			return false
		}
		if res.Winner.Sr < 0.9 {
			return false
		}
		for _, h := range res.Hypotheses {
			if h.Sr >= 0.9 && h.Sa < res.Winner.Sa {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: derivation is deterministic — same inputs, same winner.
func TestDeriveDeterministic(t *testing.T) {
	d := db.New(db.Config{})
	g := buildGroup(d, map[string]uint64{
		"a,b,c": 50, "a,b": 30, "b,c": 15, "": 5,
	})
	first := Derive(context.Background(), d, g, Options{AcceptThreshold: 0.8})
	for i := 0; i < 10; i++ {
		again := Derive(context.Background(), d, g, Options{AcceptThreshold: 0.8})
		if d.SeqString(first.Winner.Seq) != d.SeqString(again.Winner.Seq) {
			t.Fatal("winner not deterministic")
		}
		if len(first.Hypotheses) != len(again.Hypotheses) {
			t.Fatal("hypothesis count not deterministic")
		}
		fr, ar := Ranked(first.Hypotheses), Ranked(again.Hypotheses)
		for j := range fr {
			if !sameSeq(fr[j].Seq, ar[j].Seq) {
				t.Fatal("report order not deterministic")
			}
		}
	}
}

func TestSupportOfDocumentedRule(t *testing.T) {
	d := db.New(db.Config{})
	g := buildGroup(d, map[string]uint64{
		"a,b": 98,
		"a":   2,
	})
	b, _ := d.KeyByString("b")
	sa, sr := Support(g, db.LockSeq{b})
	if sa != 98 {
		t.Errorf("sa = %d, want 98", sa)
	}
	if sr != 0.98 {
		t.Errorf("sr = %f, want 0.98", sr)
	}
	// Unobserved lock: zero support.
	z := d.InternKey(db.LockKey{Kind: db.Global, Name: "z"})
	sa, sr = Support(g, db.LockSeq{z})
	if sa != 0 || sr != 0 {
		t.Errorf("unobserved rule support = %d/%f, want 0/0", sa, sr)
	}
}
