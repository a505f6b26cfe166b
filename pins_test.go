package lockdoc_test

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// pinMarker precedes a table in EXPERIMENTS.md whose rows must equal
// the named pin file.
var pinMarker = regexp.MustCompile(`^<!-- pin: (BENCH_[A-Za-z0-9_]+\.json) -->$`)

// pinnedUnits are the columns a pinned table shows for each benchmark.
var pinnedUnits = []string{"ns/op", "B/op", "allocs/op"}

// loadPin reads a BENCH_*.json file written by scripts/bench.sh and
// returns, per benchmark name without its "Benchmark" prefix and
// GOMAXPROCS suffix, each reported value keyed by its unit, exactly as
// printed.
func loadPin(t *testing.T, path string) map[string]map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pin struct {
		Benchmarks []string `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &pin); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	out := make(map[string]map[string]string)
	for _, line := range pin.Benchmarks {
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 {
			t.Fatalf("%s: malformed benchmark line %q", path, line)
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i]
		}
		vals := make(map[string]string)
		for i := 2; i < len(f); i += 2 {
			vals[f[i+1]] = f[i]
		}
		out[name] = vals
	}
	return out
}

// cells splits a markdown table row into trimmed cells.
func cells(row string) []string {
	c := strings.Split(strings.Trim(strings.TrimSpace(row), "|"), "|")
	for i := range c {
		c[i] = strings.TrimSpace(c[i])
	}
	return c
}

// TestExperimentsTablesMatchPins keeps every EXPERIMENTS.md table that
// a "<!-- pin: BENCH_x.json -->" line precedes equal to that pin: each
// row names one benchmark in backticks and shows its ns/op, B/op and
// allocs/op exactly (thousands separators allowed), and every benchmark
// of the pin has a row. Tables without the marker record history and
// are not checked.
func TestExperimentsTablesMatchPins(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")

	tables := 0
	for i := 0; i < len(lines); i++ {
		m := pinMarker.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		tables++
		pin := loadPin(t, m[1])
		j := i + 1
		for j < len(lines) && strings.TrimSpace(lines[j]) == "" {
			j++
		}
		if j+1 >= len(lines) || !strings.HasPrefix(lines[j], "|") {
			t.Errorf("EXPERIMENTS.md:%d: pin marker for %s is not followed by a table", i+1, m[1])
			continue
		}
		col := make(map[string]int)
		for k, h := range cells(lines[j]) {
			col[h] = k
		}
		for _, u := range pinnedUnits {
			if _, ok := col[u]; !ok {
				t.Errorf("EXPERIMENTS.md:%d: table pinned to %s has no %q column", j+1, m[1], u)
			}
		}
		seen := make(map[string]bool)
		for j += 2; j < len(lines) && strings.HasPrefix(lines[j], "|"); j++ {
			row := cells(lines[j])
			name := ""
			if parts := strings.Split(lines[j], "`"); len(parts) >= 3 {
				name = parts[1]
			}
			want, ok := pin[name]
			if !ok {
				t.Errorf("EXPERIMENTS.md:%d: row %q names no benchmark of %s", j+1, name, m[1])
				continue
			}
			seen[name] = true
			for _, u := range pinnedUnits {
				k, ok := col[u]
				if !ok || k >= len(row) {
					continue
				}
				if got := strings.ReplaceAll(row[k], ",", ""); got != want[u] {
					t.Errorf("EXPERIMENTS.md:%d: %s %s = %s, %s pins %s", j+1, name, u, row[k], m[1], want[u])
				}
			}
		}
		for name := range pin {
			if !seen[name] {
				t.Errorf("EXPERIMENTS.md: table pinned to %s has no row for %s", m[1], name)
			}
		}
	}
	if tables == 0 {
		t.Error("EXPERIMENTS.md has no table preceded by a <!-- pin: BENCH_x.json --> line")
	}
}
