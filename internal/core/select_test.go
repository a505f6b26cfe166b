package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lockdoc/internal/db"
)

// TestSelectOrderIndependent selects on shuffled copies of hand-built
// tables and requires the same winner and reason every time, under both
// strategies. The cases cover every reason, including the naive tie on
// equal support and equal length, which used to fall to whichever
// hypothesis came first in the list.
func TestSelectOrderIndependent(t *testing.T) {
	type hyp struct {
		seq db.LockSeq
		sa  uint64
	}
	const total = 10
	cases := []struct {
		name  string
		naive bool
		table []hyp
		win   db.LockSeq
		why   Reason
	}{
		{"lowest", false, []hyp{{nil, 10}, {db.LockSeq{1}, 8}, {db.LockSeq{2}, 6}, {db.LockSeq{1, 2}, 3}},
			db.LockSeq{2}, LowestSupport},
		{"more-locks", false, []hyp{{nil, 10}, {db.LockSeq{1}, 6}, {db.LockSeq{1, 2}, 6}, {db.LockSeq{2}, 8}},
			db.LockSeq{1, 2}, MoreLocks},
		// Signatures compare as strings: "10" sorts before "2".
		{"signature", false, []hyp{{nil, 10}, {db.LockSeq{2}, 6}, {db.LockSeq{10}, 6}, {db.LockSeq{3}, 9}},
			db.LockSeq{10}, SignatureTie},
		{"naive-highest", true, []hyp{{nil, 10}, {db.LockSeq{1}, 9}, {db.LockSeq{2}, 7}},
			db.LockSeq{1}, NaiveHighestSupport},
		{"naive-fewer-locks", true, []hyp{{nil, 10}, {db.LockSeq{1}, 9}, {db.LockSeq{1, 2}, 9}, {db.LockSeq{2}, 5}},
			db.LockSeq{1}, NaiveFewerLocks},
		{"naive-signature", true, []hyp{{nil, 10}, {db.LockSeq{2}, 9}, {db.LockSeq{10}, 9}, {db.LockSeq{1, 2}, 9}},
			db.LockSeq{10}, NaiveSignatureTie},
		{"naive-no-lock", true, []hyp{{db.LockSeq{1}, 4}, {nil, 10}, {db.LockSeq{2}, 3}},
			nil, NaiveNoLock},
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		table := make([]Hypothesis, len(c.table))
		for i, h := range c.table {
			table[i] = Hypothesis{Seq: h.seq, Sa: h.sa, Sr: float64(h.sa) / total}
		}
		for trial := 0; trial < 50; trial++ {
			rng.Shuffle(len(table), func(i, j int) { table[i], table[j] = table[j], table[i] })
			for _, tco := range []float64{0, 0.7} {
				opt := Options{AcceptThreshold: 0.5, CutoffThreshold: tco, Naive: c.naive}
				res := Select(Result{Total: total, Hypotheses: table}, opt)
				if res.Winner == nil || !sameSeq(res.Winner.Seq, c.win) || res.Reason != c.why {
					t.Fatalf("%s, trial %d, tco %v: winner %v (%v), want %v (%v)",
						c.name, trial, tco, res.Winner, res.Reason, c.win, c.why)
				}
			}
		}
	}
}

// TestSelectFromTableMatchesDerive pins the server's and the sweep's
// use of Select: the unpruned table of Options{}, the unpruned table of
// opt's MaxLocks, and the table pruned at opt's floor each select
// exactly what deriving with opt does, and selecting leaves the shared
// table untouched.
func TestSelectFromTableMatchesDerive(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := db.New(db.Config{})
		g := randomGroup(rng, d, 2+rng.Intn(5), 1+rng.Intn(6), 1+rng.Intn(8))
		opts := append([]Options(nil), minerOptMatrix...)
		opts = append(opts, Options{
			AcceptThreshold: 0.5 + rng.Float64()/2,
			CutoffThreshold: rng.Float64() * 1.1,
			MaxLocks:        rng.Intn(5),
			Naive:           rng.Intn(2) == 0,
		})
		for _, opt := range opts {
			want := Derive(ctx, d, g, opt)
			label := fmt.Sprintf("seed%d/%s", seed, opt.Key())
			pruned := Options{MaxLocks: opt.MaxLocks}
			if f := opt.Floor(); f > 0 {
				pruned.AcceptThreshold, pruned.CutoffThreshold = f, f
			}
			for _, topt := range []Options{{}, {MaxLocks: opt.MaxLocks}, pruned} {
				tab := Derive(ctx, d, g, topt)
				before := rankedHyps(tab.Hypotheses)
				got := Select(tab, opt)
				sameResults(t, label+"/from "+topt.Key(), []Result{want}, []Result{got})
				if !reflect.DeepEqual(rankedHyps(tab.Hypotheses), before) {
					t.Fatalf("%s: selecting modified the table", label)
				}
			}
		}
	}
}
