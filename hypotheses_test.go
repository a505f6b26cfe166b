package lockdoc_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lockdoc/internal/analysis"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/fs"
	"lockdoc/internal/report"
	"lockdoc/internal/trace"
)

// TestHypothesisOrderGolden pins the order in which every rendered
// hypothesis list shows the candidates: report.Table2 and
// analysis.WriteRulesJSON(…, true) for every observation group of the
// clock and blk golden traces. The golden keeps only the hypothesis
// rows (Table 2's "#" lines, the JSON "hypotheses" arrays), so a
// renderer may add other lines or fields without moving it, but any
// change of which hypothesis is listed where does.
//
// Regenerate after an intentional order change with
//
//	go test -run TestHypothesisOrderGolden -update .
func TestHypothesisOrderGolden(t *testing.T) {
	var out bytes.Buffer
	for _, in := range []struct {
		name string
		data []byte
		cfg  db.Config
	}{
		{"clock", clockV2Trace(t), db.Config{}},
		{"blk", blkV2Trace(t), fs.DefaultConfig()},
	} {
		r, err := trace.NewReader(bytes.NewReader(in.data))
		if err != nil {
			t.Fatal(err)
		}
		d, err := db.Import(r, in.cfg)
		if err != nil {
			t.Fatal(err)
		}
		results, err := core.DeriveAll(context.Background(), d, core.Options{AcceptThreshold: core.DefaultAcceptThreshold})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if res.Total == 0 {
				continue
			}
			fmt.Fprintf(&out, "== %s %s.%s %s\n", in.name, res.Group.TypeLabel(), res.Group.MemberName(), res.Group.AccessType())
			var table bytes.Buffer
			report.Table2(&table, d, res)
			sc := bufio.NewScanner(&table)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "#") {
					fmt.Fprintln(&out, sc.Text())
				}
			}
			var js bytes.Buffer
			if err := analysis.WriteRulesJSON(&js, d, []core.Result{res}, true); err != nil {
				t.Fatal(err)
			}
			var rules []analysis.RuleJSON
			if err := json.Unmarshal(js.Bytes(), &rules); err != nil {
				t.Fatal(err)
			}
			for _, rj := range rules {
				for _, h := range rj.Hypotheses {
					fmt.Fprintf(&out, "json %s sa=%d sr=%.4f\n", h.Rule, h.Sa, h.Sr)
				}
			}
		}
	}

	golden := filepath.Join("testdata", "hypothesis_order.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("rendered hypothesis order diverges from %s:\n--- got ---\n%s", golden, out.String())
	}
}
