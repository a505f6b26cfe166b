package core

import (
	"sort"

	"lockdoc/internal/db"
)

// This file defines the context-coverage metric of the workload fuzzer:
// the set of distinct
// (type.member, access type, lock combination) contexts a trace
// exercised. It is the feedback signal of the follow-up paper's
// fuzzing loop — more distinct contexts means the mined rules rest on
// more behavioral evidence, regardless of how many functions ran.

// ContextSet is a set of observed (member × access × lock-combination)
// contexts. Keys are rendered with db.SeqString, so they are stable
// across traces (raw KeyIDs are not).
type ContextSet map[string]struct{}

// ContextKey renders the canonical key for one observed combination.
func ContextKey(typeLabel, member, accessType, seq string) string {
	return typeLabel + "." + member + " " + accessType + " @ " + seq
}

// CollectContexts extracts the context set of an imported trace.
func CollectContexts(d *db.DB) (ContextSet, error) {
	out := make(ContextSet)
	for _, g := range d.Groups() {
		if err := d.Hydrate(g); err != nil {
			return nil, err
		}
		label, member, at := g.TypeLabel(), g.MemberName(), g.AccessType()
		for _, so := range g.Seqs {
			out[ContextKey(label, member, at, d.SeqString(so.Seq))] = struct{}{}
		}
	}
	return out, nil
}

// Add folds other into s and returns how many contexts were new.
func (s ContextSet) Add(other ContextSet) int {
	added := 0
	for k := range other {
		if _, ok := s[k]; !ok {
			s[k] = struct{}{}
			added++
		}
	}
	return added
}

// Diff returns the contexts of other missing from s, sorted.
func (s ContextSet) Diff(other ContextSet) []string {
	var missing []string
	for k := range other {
		if _, ok := s[k]; !ok {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	return missing
}

// Sorted returns the contexts in lexicographic order.
func (s ContextSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
