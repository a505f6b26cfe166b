// Package analysis implements LockDoc's phase-3 tools (Sec. 5.5): the
// locking-rule checker that validates documented rules against the
// trace, the documentation generator that renders mined rules in the
// style of fs/inode.c's header comment, and the rule-violation finder
// that locates accesses contradicting the winning rules.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"lockdoc/internal/core"
	"lockdoc/internal/db"
)

// Verdict classifies a documented rule after checking it against the
// observations (Sec. 5.5).
type Verdict uint8

// Verdicts.
const (
	// NotObserved: the benchmark never accessed the member, so the rule
	// could not be validated (column #No of Tab. 4).
	NotObserved Verdict = iota
	// Correct: every observation follows the rule (s_r = 1).
	Correct
	// Ambivalent: the rule is followed sometimes (0 < s_r < 1).
	Ambivalent
	// Incorrect: the rule is never followed (s_r = 0).
	Incorrect
)

// String renders the verdict with the paper's symbols.
func (v Verdict) String() string {
	switch v {
	case Correct:
		return "correct"
	case Ambivalent:
		return "ambivalent"
	case Incorrect:
		return "incorrect"
	default:
		return "not-observed"
	}
}

// Mark returns the single-character table mark used in Tab. 5.
func (v Verdict) Mark() string {
	switch v {
	case Correct:
		return "ok"
	case Ambivalent:
		return "~"
	case Incorrect:
		return "X"
	default:
		return "-"
	}
}

// RuleSpec is one documented locking rule: the member it covers and the
// lock sequence the documentation demands. Locks are given in the
// paper's textual notation ("inode_hash_lock", "ES(i_lock in inode)",
// "EO(list_lock in backing_dev_info)"); ParseLockSpec normalizes the
// legacy dot form "ES(inode.i_lock)" as well.
type RuleSpec struct {
	Type     string
	Subclass string // empty = rule applies to the unsubclassed group
	Member   string
	Write    bool
	Locks    []string
	Source   string // where the documentation lives, e.g. "fs/inode.c:14"
}

// Label renders "type.member (w)".
func (r RuleSpec) Label() string {
	at := "r"
	if r.Write {
		at = "w"
	}
	ty := r.Type
	if r.Subclass != "" {
		ty += ":" + r.Subclass
	}
	return fmt.Sprintf("%s.%s (%s)", ty, r.Member, at)
}

// RuleString renders the demanded lock sequence.
func (r RuleSpec) RuleString() string {
	if len(r.Locks) == 0 {
		return "no locks"
	}
	return strings.Join(r.Locks, " -> ")
}

// ParseLockSpec normalizes one lock reference into the canonical
// rendering used by db.LockKey.String.
func ParseLockSpec(s string) (string, error) {
	s = strings.TrimSpace(s)
	for _, kind := range []string{"ES", "EO"} {
		prefix := kind + "("
		if !strings.HasPrefix(s, prefix) || !strings.HasSuffix(s, ")") {
			continue
		}
		inner := s[len(prefix) : len(s)-1]
		if i := strings.Index(inner, " in "); i >= 0 {
			member, owner := inner[:i], inner[i+4:]
			if member == "" || owner == "" {
				return "", fmt.Errorf("analysis: malformed lock spec %q", s)
			}
			return fmt.Sprintf("%s(%s in %s)", kind, member, owner), nil
		}
		if i := strings.IndexByte(inner, '.'); i >= 0 {
			owner, member := inner[:i], inner[i+1:]
			if member == "" || owner == "" {
				return "", fmt.Errorf("analysis: malformed lock spec %q", s)
			}
			return fmt.Sprintf("%s(%s in %s)", kind, member, owner), nil
		}
		return "", fmt.Errorf("analysis: embedded lock spec %q lacks owner type", s)
	}
	if strings.ContainsAny(s, "() ") {
		return "", fmt.Errorf("analysis: malformed lock spec %q", s)
	}
	if s == "" {
		return "", fmt.Errorf("analysis: empty lock spec")
	}
	return s, nil
}

// CheckResult is the outcome of validating one documented rule.
type CheckResult struct {
	Spec    RuleSpec
	Verdict Verdict
	Sa      uint64
	Sr      float64
}

// CheckRule validates one documented rule against the observations;
// CheckAll validates many through one index.
func CheckRule(d *db.DB, spec RuleSpec) (CheckResult, error) {
	g, ok := d.IndexGroups().Merged(spec.Type, spec.Subclass, spec.Member, spec.Write)
	return checkGroup(d, spec, g, ok)
}

// checkGroup validates spec against g, the group its lookup resolved
// (ok false: no group).
func checkGroup(d *db.DB, spec RuleSpec, g *db.ObsGroup, ok bool) (CheckResult, error) {
	res := CheckResult{Spec: spec}
	if !ok || g.Total == 0 {
		res.Verdict = NotObserved
		return res, nil
	}
	var rule db.LockSeq
	for _, ls := range spec.Locks {
		canon, err := ParseLockSpec(ls)
		if err != nil {
			return res, err
		}
		id, ok := d.KeyByString(canon)
		if !ok {
			// The documented lock was never observed held during any
			// access to this member: the rule is never followed.
			res.Verdict = Incorrect
			return res, nil
		}
		rule = append(rule, id)
	}
	res.Sa, res.Sr = core.Support(g, rule)
	switch {
	case res.Sr >= 1.0:
		res.Verdict = Correct
	case res.Sr > 0:
		res.Verdict = Ambivalent
	default:
		res.Verdict = Incorrect
	}
	return res, nil
}

// CheckAll validates a rule corpus, resolving every rule's group
// through one db.GroupIndex rather than a scan of all groups per rule.
func CheckAll(d *db.DB, specs []RuleSpec) ([]CheckResult, error) {
	ix := d.IndexGroups()
	out := make([]CheckResult, 0, len(specs))
	for _, spec := range specs {
		g, ok := ix.Merged(spec.Type, spec.Subclass, spec.Member, spec.Write)
		res, err := checkGroup(d, spec, g, ok)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", spec.Label(), err)
		}
		out = append(out, res)
	}
	return out, nil
}

// CheckSummary aggregates check results per data type — one row of
// Tab. 4.
type CheckSummary struct {
	Type       string
	Rules      int // #R
	NotObs     int // #No
	Observed   int // #Ob
	Correct    int
	Ambivalent int
	Incorrect  int
}

// Pct helpers for the Tab. 4 percentage columns (of observed rules).
func (s CheckSummary) CorrectPct() float64    { return pct(s.Correct, s.Observed) }
func (s CheckSummary) AmbivalentPct() float64 { return pct(s.Ambivalent, s.Observed) }
func (s CheckSummary) IncorrectPct() float64  { return pct(s.Incorrect, s.Observed) }

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// Summarize groups check results per type in first-seen order.
func Summarize(results []CheckResult) []CheckSummary {
	index := make(map[string]int)
	var out []CheckSummary
	for _, r := range results {
		i, ok := index[r.Spec.Type]
		if !ok {
			i = len(out)
			index[r.Spec.Type] = i
			out = append(out, CheckSummary{Type: r.Spec.Type})
		}
		s := &out[i]
		s.Rules++
		switch r.Verdict {
		case NotObserved:
			s.NotObs++
		case Correct:
			s.Observed++
			s.Correct++
		case Ambivalent:
			s.Observed++
			s.Ambivalent++
		case Incorrect:
			s.Observed++
			s.Incorrect++
		}
	}
	return out
}

// SortChecks orders detailed check results the way Tab. 5 presents them:
// by descending relative support, writes before reads on ties.
func SortChecks(results []CheckResult) {
	sort.SliceStable(results, func(i, j int) bool {
		a, b := results[i], results[j]
		if a.Sr != b.Sr {
			return a.Sr > b.Sr
		}
		if a.Spec.Write != b.Spec.Write {
			return a.Spec.Write
		}
		return a.Spec.Member < b.Spec.Member
	})
}
