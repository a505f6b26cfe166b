package analysis

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"lockdoc/internal/core"
	"lockdoc/internal/db"
)

// MiningSummary is one row of Tab. 6: mined locking rules for one data
// type (or inode subclass).
type MiningSummary struct {
	TypeLabel   string
	Members     int // #M — members of the type
	Blacklisted int // #Bl — filtered members (atomic, lock, black-listed)
	RulesRead   int // #Rules (r)
	RulesWrite  int // #Rules (w)
	NoLockRead  int // #Nl (r)
	NoLockWrite int // #Nl (w)
}

// SummarizeMining aggregates derivation results per type label.
func SummarizeMining(d *db.DB, results []core.Result) []MiningSummary {
	index := make(map[string]int)
	var out []MiningSummary
	for _, res := range results {
		if res.Group == nil || res.Total == 0 || res.Winner == nil {
			continue
		}
		label := res.Group.TypeLabel()
		i, ok := index[label]
		if !ok {
			i = len(out)
			index[label] = i
			ms := MiningSummary{TypeLabel: label, Members: len(res.Group.Type.Members)}
			ms.Blacklisted = d.BlacklistedMembers(res.Group.Type)
			out = append(out, ms)
		}
		s := &out[i]
		if res.Group.Key.Write {
			s.RulesWrite++
			if res.Winner.NoLock() {
				s.NoLockWrite++
			}
		} else {
			s.RulesRead++
			if res.Winner.NoLock() {
				s.NoLockRead++
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TypeLabel < out[j].TypeLabel })
	return out
}

// NoLockFraction computes, for every type label and access type, the
// fraction of observed members whose winning hypothesis is "no lock"
// at acceptance threshold tac — one point of Fig. 7. Cancelling ctx
// aborts the underlying derivation at the next group boundary.
func NoLockFraction(ctx context.Context, d *db.DB, tac float64) (map[string]map[string]float64, error) {
	results, err := core.DeriveAll(ctx, d, core.Options{AcceptThreshold: tac})
	if err != nil {
		return nil, err
	}
	return noLockFractions(results), nil
}

// noLockFractions tallies the "no lock" winners of one selection.
func noLockFractions(results []core.Result) map[string]map[string]float64 {
	type counts struct{ noLock, total int }
	acc := make(map[string]map[string]*counts)
	for _, res := range results {
		if res.Total == 0 || res.Winner == nil {
			continue
		}
		label := res.Group.TypeLabel()
		at := res.Group.AccessType()
		if acc[label] == nil {
			acc[label] = map[string]*counts{"r": {}, "w": {}}
		}
		c := acc[label][at]
		c.total++
		if res.Winner.NoLock() {
			c.noLock++
		}
	}
	out := make(map[string]map[string]float64, len(acc))
	for label, m := range acc {
		out[label] = make(map[string]float64, 2)
		for at, c := range m {
			if c.total > 0 {
				out[label][at] = 100 * float64(c.noLock) / float64(c.total)
			}
		}
	}
	return out
}

// SweepPoint is one sample of the Fig. 7 threshold sweep.
type SweepPoint struct {
	Threshold float64
	// Fractions maps type label -> access type ("r"/"w") -> percentage
	// of "no lock" winners.
	Fractions map[string]map[string]float64
}

// ThresholdSweep evaluates NoLockFraction over a range of acceptance
// thresholds (Fig. 7 uses 0.70..1.00). The supports do not depend on
// t_ac, so it mines every group's table once and selects the winners
// per threshold (core.Select). Cancelling ctx stops the mining at the
// next group boundary.
func ThresholdSweep(ctx context.Context, d *db.DB, from, to, step float64) ([]SweepPoint, error) {
	tables, err := core.DeriveAll(ctx, d, core.Options{})
	if err != nil {
		return nil, err
	}
	var out []SweepPoint
	sel := make([]core.Result, len(tables))
	// Index-based stepping: naive accumulation drifts above `to` and a
	// threshold of 1.0000000000000002 would reject even fully-supported
	// hypotheses.
	n := int((to-from)/step + 0.5)
	for i := 0; i <= n; i++ {
		tac := from + float64(i)*step
		if tac > to {
			tac = to
		}
		for j, tab := range tables {
			sel[j] = core.Select(tab, core.Options{AcceptThreshold: tac})
		}
		out = append(out, SweepPoint{Threshold: tac, Fractions: noLockFractions(sel)})
	}
	return out, nil
}

// GenerateDoc renders the mined rules of one type label as a kernel-style
// locking-documentation comment (Fig. 8). Only members whose winning
// hypothesis exists are listed; members sharing a rule are grouped.
func GenerateDoc(d *db.DB, results []core.Result, typeLabel string) string {
	// rule string -> member names (annotated with r/w when the rules
	// for the two access types differ).
	byRule := make(map[string][]string)
	perMember := make(map[string]map[string]string) // member -> accessType -> rule
	for _, res := range results {
		if res.Winner == nil || res.Group.TypeLabel() != typeLabel {
			continue
		}
		m := res.Group.MemberName()
		if perMember[m] == nil {
			perMember[m] = make(map[string]string, 2)
		}
		perMember[m][res.Group.AccessType()] = d.SeqString(res.Winner.Seq)
	}
	members := make([]string, 0, len(perMember))
	for m := range perMember {
		members = append(members, m)
	}
	sort.Strings(members)
	for _, m := range members {
		rules := perMember[m]
		r, hasR := rules["r"]
		w, hasW := rules["w"]
		switch {
		case hasR && hasW && r == w:
			byRule[w] = append(byRule[w], m)
		case hasR && hasW:
			byRule[r] = append(byRule[r], m+" [r]")
			byRule[w] = append(byRule[w], m+" [w]")
		case hasR:
			byRule[r] = append(byRule[r], m+" [r]")
		case hasW:
			byRule[w] = append(byRule[w], m+" [w]")
		}
	}

	rules := make([]string, 0, len(byRule))
	for r := range byRule {
		rules = append(rules, r)
	}
	sort.Slice(rules, func(i, j int) bool {
		// "no locks" first, then lexicographic — matching Fig. 8's
		// layout which opens with the lock-free members.
		a, b := rules[i], rules[j]
		if (a == "no locks") != (b == "no locks") {
			return a == "no locks"
		}
		return a < b
	})

	var sb strings.Builder
	fmt.Fprintf(&sb, "/*\n * %s locking rules (generated by LockDoc):\n *\n", typeLabel)
	for _, r := range rules {
		ms := byRule[r]
		if r == "no locks" {
			sb.WriteString(" * No locks needed for:\n")
		} else {
			fmt.Fprintf(&sb, " * %s protects:\n", r)
		}
		fmt.Fprintf(&sb, " *   %s\n *\n", strings.Join(ms, ", "))
	}
	sb.WriteString(" */\n")
	return sb.String()
}
