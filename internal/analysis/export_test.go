package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"lockdoc/internal/core"
)

func TestWriteRulesJSON(t *testing.T) {
	d := fixture(t)
	results, _ := core.DeriveAll(context.Background(), d, core.Options{AcceptThreshold: 0.9})
	var buf bytes.Buffer
	if err := WriteRulesJSON(&buf, d, results, true); err != nil {
		t.Fatal(err)
	}
	var rules []RuleJSON
	if err := json.Unmarshal(buf.Bytes(), &rules); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules exported")
	}
	foundIState := false
	for _, r := range rules {
		if r.Type == "inode" && r.Member == "i_state" && r.Access == "w" {
			foundIState = true
			if r.Rule != "ES(i_lock in inode)" {
				t.Errorf("i_state rule = %q", r.Rule)
			}
			if r.Sr != 1.0 || r.Sa == 0 {
				t.Errorf("i_state support = %d/%f", r.Sa, r.Sr)
			}
			if len(r.Hypotheses) == 0 {
				t.Error("hypotheses not embedded")
			}
		}
	}
	if !foundIState {
		t.Error("i_state rule missing from export")
	}
}

func TestWriteChecksJSON(t *testing.T) {
	d := fixture(t)
	results, err := CheckAll(d, []RuleSpec{
		{Type: "inode", Subclass: "ext4", Member: "i_state", Write: true,
			Locks: []string{"ES(inode.i_lock)"}, Source: "fs.h:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChecksJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	var checks []CheckJSON
	if err := json.Unmarshal(buf.Bytes(), &checks); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(checks) != 1 || checks[0].Verdict != "correct" || checks[0].Source != "fs.h:1" {
		t.Errorf("checks = %+v", checks)
	}
}

func TestWriteViolationsJSON(t *testing.T) {
	d := fixture(t)
	results, _ := core.DeriveAll(context.Background(), d, core.Options{AcceptThreshold: 0.9})
	viols := FindViolations(d, results)
	var buf bytes.Buffer
	if err := WriteViolationsJSON(&buf, Examples(d, viols, 10)); err != nil {
		t.Fatal(err)
	}
	var exs []ViolationJSON
	if err := json.Unmarshal(buf.Bytes(), &exs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(exs) == 0 {
		t.Fatal("no violations exported")
	}
	if exs[0].Location == "" || exs[0].Rule == "" {
		t.Errorf("incomplete violation: %+v", exs[0])
	}
}

// FuzzAppendJSON holds the writer to encoding/json, its oracle. A
// value decoded from valid JSON must encode to exactly the bytes of an
// Encoder with SetEscapeHTML(false) and SetIndent("", "  "), and the
// input's compact form must indent to exactly json.Indent's output.
func FuzzAppendJSON(f *testing.F) {
	for _, s := range []string{
		`{}`, `[]`, `{"a":{},"b":[[],{}],"c":[{}]}`, `[[[]],{"x":{"y":[]}}]`,
		`"a \"quoted\" \\ back\\slash\\\\"`, `{"k\\":"\\\"","\"":[" "]}`,
		`"<a> & <b>"`, `{"rule":"ES(i_lock in inode) -> EO(s_lock)"}`,
		`"héllo wörld, 日本語,   😀"`,
		`1e-7`, `[-0.0000001,1e21,123456789012345678,true,false,null]`,
		` { "spaced" : [ 1 , 2 ] } `,
		strings.Repeat(`[`, 40) + strings.Repeat(`]`, 40),
		strings.Repeat(`{"d":[`, 40) + `0` + strings.Repeat(`]}`, 40),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var v any
		if json.Unmarshal(data, &v) == nil {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetEscapeHTML(false)
			enc.SetIndent("", "  ")
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
			got, err := AppendJSON(nil, v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("AppendJSON differs from the Encoder:\n--- got ---\n%s--- want ---\n%s", got, want.Bytes())
			}
		}
		var compact, want bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&want, compact.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		if got := appendIndent(nil, compact.Bytes()); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendIndent(%q) differs from json.Indent:\n--- got ---\n%s\n--- want ---\n%s", compact.Bytes(), got, want.Bytes())
		}
	})
}
