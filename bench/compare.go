package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare judges by.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRuns reads the untraced runs of a results file, keeping only the
// runs labelled set when arg is FILE:SET, grouped by workload and
// metric.
func loadRuns(arg string) (map[string]map[string][]float64, error) {
	path, set, _ := strings.Cut(arg, ":")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		if r.Trace != 0 || (set != "" && r.Set != set) {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced runs", arg)
	}
	return out, nil
}

// compareMain implements `bench compare A[:SET] B[:SET]`, with A the
// base and B the change. For every workload both sides ran and every
// end-to-end metric of BENCHMARK.json it prints each side's median and
// quartiles and a verdict:
//
//	ok          B's median is no worse than A's by more than the bound
//	regressed   B's median is worse than A's by more than the bound
//	unresolved  a side's quartile distance exceeds the bound's share of
//	            its median (never for setup_s)
//	improved    unresolved, but every run of B beats every run of A
//
// It exits 1 when anything regressed, else 3 when anything is
// unresolved, else 0.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	fl.SetOutput(stderr)
	specPath := fl.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] A.json[:SET] B.json[:SET]")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if errors.Is(err, os.ErrNotExist) && *specPath == "BENCHMARK.json" {
		spec, err = loadSpec("../BENCHMARK.json") // run from bench/
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	a, err := loadRuns(fl.Arg(0))
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadRuns(fl.Arg(1)); err == nil {
			return compareRuns(spec, a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "bench compare: %v\n", err)
	return 2
}

func compareRuns(spec *benchSpec, a, b map[string]map[string][]float64, w io.Writer) int {
	var names []string
	for n := range a {
		if b[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	regressed, unresolved := 0, 0
	fmt.Fprintf(w, "%-16s %-17s %28s %28s %8s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "change", "verdict")
	for _, n := range names {
		for _, m := range spec.EndToEnd {
			av, bv := a[n][m.Name], b[n][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			a1, am, a3 := quartiles(av)
			b1, bm, b3 := quartiles(bv)
			change := (bm - am) / am
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			// setup_s is judged by its median alone: a run sets up only a
			// few times, so its spread is wide, and its bound exists to
			// catch work moved into set-up, which moves the median.
			wide := (a3-a1)/math.Abs(am) > m.Bound || (b3-b1)/math.Abs(bm) > m.Bound
			verdict := "ok"
			switch {
			case wide && m.Name != "setup_s":
				verdict = "unresolved"
				if allBetter(bv, av, m.Better == "higher") {
					verdict = "improved"
				} else {
					unresolved++
				}
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-16s %-17s %28s %28s %+7.1f%%  %s\n", n, m.Name,
				fmt.Sprintf("%.4g [%.4g %.4g]", am, a1, a3), fmt.Sprintf("%.4g [%.4g %.4g]", bm, b1, b3), 100*change, verdict)
		}
	}
	switch {
	case regressed > 0:
		return 1
	case unresolved > 0:
		return 3
	}
	return 0
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(b, a []float64, higher bool) bool {
	for _, x := range b {
		for _, y := range a {
			if (higher && x <= y) || (!higher && x >= y) {
				return false
			}
		}
	}
	return true
}
