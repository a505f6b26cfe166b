package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"
)

// tinySizes shrink every workload so the whole suite runs in seconds.
var tinySizes = sizes{
	kernelScale: 1, appendScale: 1, tinyKernel: true,
	deepTypes: 8, deepRounds: 24,
	appendBlocks: 3, probeAppends: 2,
	serveRate: 200, readerRate: 50, probeRate: 100,
	tacValues: 8, setupReps: 1,
}

// TestWorkloads runs every workload untraced and traced at tiny sizes:
// each run must check every output without a failure, emit exactly the
// metrics BENCHMARK.json names with their units, and a traced run must
// write its spans.
func TestWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	sort.Strings(specNames)
	if got := workloadNames(); !slices.Equal(got, specNames) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, specNames)
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			spans := filepath.Join(t.TempDir(), "spans.json")
			res, err := runWorkload(context.Background(), name, 1, 100*time.Millisecond, traced, spans, tinySizes, io.Discard)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d operations failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := e2e
			if traced {
				want = layer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %s", name, traced, m, got, unit)
				}
			}
			if traced {
				var recs []spanRecord
				data, err := os.ReadFile(spans)
				if err == nil {
					err = json.Unmarshal(data, &recs)
				}
				if err != nil || len(recs) == 0 {
					t.Errorf("%s: span file: %d spans, %v", name, len(recs), err)
				}
			}
		}
	}
}

func TestSelfcheck(t *testing.T) {
	if err := selfcheck(context.Background(), "../testdata"); err != nil {
		t.Fatal(err)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which judges run-to-run spreads.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestCompare checks the verdicts of compare on hand-made run sets.
func TestCompare(t *testing.T) {
	spec := &benchSpec{}
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"op_p50_ms","better":"lower","bound":0.1}]}`), spec); err != nil {
		t.Fatal(err)
	}
	runs := func(vs ...float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{"w": {"op_p50_ms": vs}}
	}
	base := runs(10, 10.1, 9.9, 10, 10.05)
	for _, c := range []struct {
		b    map[string]map[string][]float64
		exit int
	}{
		{runs(10.2, 10.1, 10.3, 10.2, 10.25), 0}, // within the bound
		{runs(12, 12.1, 11.9, 12, 12.05), 1},     // 20% slower
		{runs(5, 15, 10, 6, 14), 3},              // spread wider than the bound
		{runs(5, 6, 7, 5.5, 8), 0},               // spread wide, but every run faster
	} {
		if got := compareRuns(spec, base, c.b, io.Discard); got != c.exit {
			t.Errorf("compare %v: exit %d, want %d", c.b["w"]["op_p50_ms"], got, c.exit)
		}
	}

	// setup_s is judged by its median alone, however wide its spread.
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"setup_s","better":"lower","bound":0.25}]}`), spec); err != nil {
		t.Fatal(err)
	}
	wide := map[string]map[string][]float64{"w": {"setup_s": {1, 2, 1.5, 1, 2}}}
	if got := compareRuns(spec, wide, wide, io.Discard); got != 0 {
		t.Errorf("compare of a wide setup_s with itself: exit %d, want 0", got)
	}
	slower := map[string]map[string][]float64{"w": {"setup_s": {2, 4, 3, 2, 4}}}
	if got := compareRuns(spec, wide, slower, io.Discard); got != 1 {
		t.Errorf("compare of a doubled setup_s: exit %d, want 1", got)
	}
}
