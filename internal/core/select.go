package core

import (
	"cmp"
	"slices"
)

// Mining and selection are separate steps. Mining fills a group's
// hypothesis table. A hypothesis's supports depend only on the group;
// MaxLocks and the prune floor (Options.Floor) only decide which
// hypotheses the table holds. Selection drops the hypotheses longer
// than MaxLocks, picks the winner under t_ac and the strategy, then
// applies the t_co cut-off. It breaks every tie explicitly, so it does
// not depend on the order of the table. That order is the miner's walk
// order, which follows the map iteration of the group's sequences.
// Report order is produced only where hypotheses are shown, by Ranked.

// Reason records why selection picked a result's winner: the
// north star's "why did this rule win?".
type Reason uint8

const (
	// NoWinner: the group has no hypotheses (empty or cancelled).
	NoWinner Reason = iota
	// LowestSupport: the only hypothesis at or above t_ac with the
	// lowest support.
	LowestSupport
	// MoreLocks: tied on the lowest support; it holds the most locks.
	MoreLocks
	// SignatureTie: tied on the lowest support and on the lock count;
	// its signature sorts first.
	SignatureTie
	// NaiveHighestSupport: naive strategy; the only locked hypothesis
	// at or above t_ac with the highest support.
	NaiveHighestSupport
	// NaiveFewerLocks: naive strategy; tied on the highest support, it
	// holds the fewest locks.
	NaiveFewerLocks
	// NaiveSignatureTie: naive strategy; tied on the highest support
	// and on the lock count, its signature sorts first.
	NaiveSignatureTie
	// NaiveNoLock: naive strategy; no locked hypothesis reaches t_ac,
	// so "no lock" wins.
	NaiveNoLock
)

var reasonText = [...]string{
	NoWinner:            "no winner",
	LowestSupport:       "lowest support at or above t_ac",
	MoreLocks:           "tied lowest support, most locks",
	SignatureTie:        "tied lowest support and lock count, first signature",
	NaiveHighestSupport: "naive: highest support",
	NaiveFewerLocks:     "naive: tied highest support, fewest locks",
	NaiveSignatureTie:   "naive: tied highest support and lock count, first signature",
	NaiveNoLock:         "naive: no locked hypothesis at or above t_ac",
}

func (r Reason) String() string {
	if int(r) < len(reasonText) {
		return reasonText[r]
	}
	return "unknown"
}

// Select picks the winner of a mined table under opt: hypotheses
// longer than opt.MaxLocks neither win nor are reported, and opt's
// cut-off applies. tab must hold every hypothesis opt can pick or keep,
// as the unpruned table (Derive with Options{}) does for every opt; so
// does a table mined with opt's MaxLocks and a floor at most
// opt.Floor(). The returned Result equals Derive with opt, up to
// hypothesis order. tab is not modified: when neither the cap nor a
// cut-off drops anything the result shares its Hypotheses, else it
// gets a fresh slice of the kept hypotheses.
func Select(tab Result, opt Options) Result {
	res := Result{Group: tab.Group, Total: tab.Total}
	hyps, dst := tab.Hypotheses, []Hypothesis(nil)
	long := func(h Hypothesis) bool { return len(h.Seq) > opt.MaxLocks }
	if opt.MaxLocks > 0 && slices.ContainsFunc(hyps, long) {
		hyps = slices.DeleteFunc(slices.Clone(hyps), long)
		dst = hyps[:0]
	}
	choose(&res, dst, hyps, opt)
	return res
}

// choose is the common selection step of mining and Select: pick the
// winner of hyps under opt, then apply the cut-off, appending the kept
// hypotheses to dst. dst may be hyps[:0] when the caller owns hyps,
// since every kept hypothesis is written at or before the index it was
// read from. The winner is tracked by index, never by a pointer into a
// slice the filter overwrites.
func choose(res *Result, dst, hyps []Hypothesis, opt Options) {
	w, why := selectWinner(hyps, opt)
	if opt.CutoffThreshold > 0 {
		kept, kw := dst, -1
		for i, h := range hyps {
			if i == w {
				kw = len(kept)
			} else if h.Sr < opt.CutoffThreshold {
				continue
			}
			kept = append(kept, h)
		}
		hyps, w = kept, kw
	}
	res.Hypotheses = hyps
	if w >= 0 {
		res.Winner = &hyps[w]
		res.Reason = why
	}
}

// selectWinner implements the paper's selection strategy, or the
// naive baseline, over hyps in any order. It returns the winner's index
// (-1 for none) and the reason it won.
func selectWinner(hyps []Hypothesis, opt Options) (int, Reason) {
	tac := opt.accept()
	if !opt.Naive {
		// LockDoc: all hypotheses above t_ac are assumed related; pick
		// the one with the lowest support, breaking ties toward more
		// locks, then toward the first signature.
		return pick(hyps, tac, false, LowestSupport)
	}
	// Naive: highest support among hypotheses with locks, if any
	// clears the threshold, breaking ties toward fewer locks, then
	// toward the first signature; "no lock" otherwise.
	if w, why := pick(hyps, tac, true, NaiveHighestSupport); w >= 0 {
		return w, why
	}
	for i := range hyps {
		if hyps[i].NoLock() {
			return i, NaiveNoLock
		}
	}
	return -1, NoWinner
}

// pick scans the hypotheses at or above tac for the best one: lowest
// support and most locks, or, when naive (which also skips "no lock"),
// highest support and fewest locks; the first signature breaks the
// remaining tie. It also counts the ties the winner survived, which
// select its reason: base, base+1 (won on lock count) or base+2 (won
// on signature).
func pick(hyps []Hypothesis, tac float64, naive bool, base Reason) (int, Reason) {
	win, ties, lenTies := -1, 0, 0
	for i := range hyps {
		h := &hyps[i]
		if h.Sr < tac || (naive && h.NoLock()) {
			continue
		}
		if win < 0 {
			win, ties, lenTies = i, 1, 1
			continue
		}
		w := &hyps[win]
		if h.Sa != w.Sa {
			if (h.Sa < w.Sa) != naive {
				win, ties, lenTies = i, 1, 1
			}
			continue
		}
		ties++
		hl, wl := len(h.Seq), len(w.Seq)
		if naive {
			hl, wl = wl, hl
		}
		switch {
		case hl > wl:
			win, lenTies = i, 1
		case hl == wl:
			lenTies++
			if compareSeqSig(h.Seq, w.Seq) < 0 {
				win = i
			}
		}
	}
	switch {
	case win < 0:
		return -1, NoWinner
	case lenTies > 1:
		return win, base + 2
	case ties > 1:
		return win, base + 1
	}
	return win, base
}

// Ranked returns pointers to hyps in report order: support descending,
// then fewer locks, then signature. It is the only place that order is
// made; every renderer that shows hypotheses calls it. hyps is not
// modified, since a cached table may be read by several requests at
// once, and a result's Winner keeps pointing at the same element.
func Ranked(hyps []Hypothesis) []*Hypothesis {
	out := make([]*Hypothesis, len(hyps))
	for i := range hyps {
		out[i] = &hyps[i]
	}
	slices.SortFunc(out, func(a, b *Hypothesis) int {
		if c := cmp.Compare(b.Sa, a.Sa); c != 0 {
			return c
		}
		if c := cmp.Compare(len(a.Seq), len(b.Seq)); c != 0 {
			return c
		}
		return compareSeqSig(a.Seq, b.Seq)
	})
	return out
}
