package analysis

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"

	"lockdoc/internal/core"
	"lockdoc/internal/db"
)

// The paper's locking-rule derivator provides "several human- and
// machine-readable report modes" (Sec. 6). This file is the
// machine-readable side: JSON documents for derivation results, check
// results and violations, meant for downstream tooling (dashboards,
// CI gates, the diff tool of other checkouts). HTML escaping is off so
// the "a -> b" arrow notation survives grep-ably instead of as \u003e.
//
// Each report has one builder (RulesJSON, ChecksJSON, ViolationsJSON)
// that the Write*JSON encoders and lockdocd share: the server passes
// the builder's value to its response envelope, so every payload is
// encoded exactly once.

// RuleJSON is one derived rule in the JSON report.
type RuleJSON struct {
	Type     string  `json:"type"`
	Subclass string  `json:"subclass,omitempty"`
	Member   string  `json:"member"`
	Access   string  `json:"access"` // "r" or "w"
	Rule     string  `json:"rule"`   // "no locks" or the arrow sequence
	Sa       uint64  `json:"sa"`
	Sr       float64 `json:"sr"`
	Total    uint64  `json:"observations"`
	// Reason and Hypotheses are set only when hypotheses are
	// requested: why the rule won, and every candidate in report order.
	Reason     string           `json:"reason,omitempty"`
	Hypotheses []HypothesisJSON `json:"hypotheses,omitempty"`
}

// HypothesisJSON is one candidate rule.
type HypothesisJSON struct {
	Rule string  `json:"rule"`
	Sa   uint64  `json:"sa"`
	Sr   float64 `json:"sr"`
}

// RulesJSON builds the JSON report of the derivation results: one
// row per group with a winner. With includeHypotheses, every candidate
// is embedded per rule in report order (core.Ranked), with the reason
// the winner won.
func RulesJSON(d *db.DB, results []core.Result, includeHypotheses bool) []RuleJSON {
	out := make([]RuleJSON, 0, len(results))
	for _, res := range results {
		if res.Winner == nil {
			continue
		}
		rj := RuleJSON{
			Type:     res.Group.Type.Name,
			Subclass: res.Group.Key.Subclass,
			Member:   res.Group.MemberName(),
			Access:   res.Group.AccessType(),
			Rule:     d.SeqString(res.Winner.Seq),
			Sa:       res.Winner.Sa,
			Sr:       res.Winner.Sr,
			Total:    res.Total,
		}
		if includeHypotheses {
			rj.Reason = res.Reason.String()
			for _, h := range core.Ranked(res.Hypotheses) {
				rj.Hypotheses = append(rj.Hypotheses, HypothesisJSON{
					Rule: d.SeqString(h.Seq), Sa: h.Sa, Sr: h.Sr,
				})
			}
		}
		out = append(out, rj)
	}
	return out
}

// WriteRulesJSON emits RulesJSON as an indented JSON array.
func WriteRulesJSON(w io.Writer, d *db.DB, results []core.Result, includeHypotheses bool) error {
	return writeJSON(w, RulesJSON(d, results, includeHypotheses))
}

// CheckJSON is one documented-rule verdict in the JSON report.
type CheckJSON struct {
	Type    string  `json:"type"`
	Member  string  `json:"member"`
	Access  string  `json:"access"`
	Rule    string  `json:"rule"`
	Source  string  `json:"source,omitempty"`
	Verdict string  `json:"verdict"`
	Sa      uint64  `json:"sa"`
	Sr      float64 `json:"sr"`
}

// ChecksJSON builds the JSON report of rule-checker results.
func ChecksJSON(results []CheckResult) []CheckJSON {
	out := make([]CheckJSON, 0, len(results))
	for _, r := range results {
		at := "r"
		if r.Spec.Write {
			at = "w"
		}
		out = append(out, CheckJSON{
			Type: r.Spec.Type, Member: r.Spec.Member, Access: at,
			Rule: r.Spec.RuleString(), Source: r.Spec.Source,
			Verdict: r.Verdict.String(), Sa: r.Sa, Sr: r.Sr,
		})
	}
	return out
}

// WriteChecksJSON emits ChecksJSON as an indented JSON array.
func WriteChecksJSON(w io.Writer, results []CheckResult) error {
	return writeJSON(w, ChecksJSON(results))
}

// ViolationJSON is one violation example in the JSON report.
type ViolationJSON struct {
	TypeMember string `json:"type_member"`
	Rule       string `json:"rule"`
	Held       string `json:"held"`
	Location   string `json:"location"`
	Stack      string `json:"stack"`
	Events     uint64 `json:"events"`
}

// ViolationsJSON builds the JSON report of violation examples.
func ViolationsJSON(examples []ViolationExample) []ViolationJSON {
	out := make([]ViolationJSON, 0, len(examples))
	for _, e := range examples {
		out = append(out, ViolationJSON{
			TypeMember: e.TypeMember, Rule: e.Rule, Held: e.Held,
			Location: e.Location, Stack: e.Stack, Events: e.Events,
		})
	}
	return out
}

// WriteViolationsJSON emits ViolationsJSON as an indented JSON array.
func WriteViolationsJSON(w io.Writer, examples []ViolationExample) error {
	return writeJSON(w, ViolationsJSON(examples))
}

// writeJSON encodes v the way every report of this file is written:
// indented by two spaces, without HTML escaping.
func writeJSON(w io.Writer, v any) error {
	b, err := AppendJSON(nil, v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendJSON appends the JSON encoding of v to dst, exactly as a
// json.Encoder with SetEscapeHTML(false) and SetIndent("", "  ")
// writes it, trailing newline included. Every JSON body of the CLIs'
// -json reports and of lockdocd goes through it. It encodes compactly
// and then indents in one scan (appendIndent), which costs far less
// than the Encoder's indent pass, a scanner step per byte.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	var compact bytes.Buffer
	enc := json.NewEncoder(&compact)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return dst, err
	}
	// Indenting adds 31–70% to the /v1 bodies of the kernel mix (54%
	// to /v1/rules), so 7/4 of the compact length holds each of them
	// in one allocation.
	n := compact.Len()
	return appendIndent(slices.Grow(dst, n+n*3/4), compact.Bytes()), nil
}

// indents is a newline and the indent of up to 32 levels, so that
// appendNewline is one append at the depths reports reach.
const indents = "\n                                                                "

// appendNewline appends a newline and the indent of depth levels.
func appendNewline(dst []byte, depth int) []byte {
	if n := 1 + 2*depth; n <= len(indents) {
		return append(dst, indents[:n]...)
	}
	dst = append(dst, indents...)
	for d := len(indents) / 2; d < depth; d++ {
		dst = append(dst, "  "...)
	}
	return dst
}

// appendIndent appends src indented by two spaces per level to dst,
// as json.Indent(dst, src, "", "  ") does. Its precondition is
// Marshal's own compact output: no whitespace outside strings, and
// '"' and '\\' always escaped inside them. So a string ends at the
// first quote after an even run of backslashes, and outside strings
// only the depth needs tracking. Any other byte outside a string (a
// number, a literal, the Encoder's trailing newline) is copied.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			j := i + 1
			for {
				k := bytes.IndexByte(src[j:], '"')
				if k < 0 {
					return append(dst, src[i:]...)
				}
				j += k
				b := j
				for src[b-1] == '\\' {
					b--
				}
				if (j-b)%2 == 0 {
					break
				}
				j++
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				dst = append(dst, c, src[i+1])
				i++
				continue
			}
			depth++
			dst = appendNewline(append(dst, c), depth)
		case '}', ']':
			depth--
			dst = append(appendNewline(dst, depth), c)
		case ',':
			dst = appendNewline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}
