// Command bench is the repository benchmark. From one process it drives
// the public entry points of every pipeline layer — trace decoding
// (trace), import (db, cli), rule mining (core), rendering (analysis),
// the segment store (segstore) and lockdocd (server, through apiclient)
// — on four seeded workloads, checks every output against a reference,
// and prints one JSON result line.
//
// Run it through bench/run.sh from the repository root, which builds it
// from source first:
//
//	bash bench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//	                  [--spans FILE] [--out FILE [--set LABEL]]
//	bash bench/run.sh --selfcheck [--testdata DIR]
//	bash bench/run.sh compare A.json[:SET] B.json[:SET]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the layer
// probe instead and prints the per-layer metrics, writing its spans to
// --spans. --out appends the run, with the host and build it ran on, to
// a results file that compare reads. README.md describes the workloads
// and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one emitted metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are emitted by every untraced run, layerMetrics by every
// traced run. BENCHMARK.json lists the same names (bench_test.go checks
// that the two agree).
var (
	e2eMetrics = []metricDef{
		{"setup_s", "s"}, {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"},
		{"throughput_per_s", "1/s"}, {"heap_mb", "MB"},
	}
	layerMetrics = []metricDef{
		{"trace.decode_ms", "ms"}, {"trace.events", "count"}, {"trace.bytes", "bytes"},
		{"db.consume_ms", "ms"}, {"db.seal_ms", "ms"}, {"db.groups", "count"}, {"db.dirty_groups", "count"},
		{"core.derive_ms", "ms"}, {"core.derive_seq_ms", "ms"}, {"core.stream_ms", "ms"},
		{"core.stream_spec_passes", "count"}, {"core.stream_reuse_ratio", "ratio"},
		{"core.delta_ms", "ms"}, {"core.delta_remined_ratio", "ratio"},
		{"analysis.doc_ms", "ms"}, {"analysis.violations_ms", "ms"}, {"analysis.checks_ms", "ms"},
		{"analysis.rules_json_ms", "ms"},
		{"segstore.append_trace_ms", "ms"}, {"segstore.compact_ms", "ms"}, {"segstore.compact_bytes", "bytes"},
		{"segstore.write_amp", "ratio"}, {"segstore.store_ratio", "ratio"},
		{"segstore.reopen_ms", "ms"}, {"segstore.hydrate_ms", "ms"},
		{"server.handler_ms.doc", "ms"}, {"server.handler_ms.rules", "ms"}, {"server.handler_ms.rules_tac", "ms"},
		{"server.handler_ms.violations", "ms"}, {"server.handler_ms.checks", "ms"}, {"server.handler_ms.stats", "ms"},
		{"server.handler_ms.append", "ms"}, {"server.reopen_ms", "ms"}, {"server.cache_hit_ratio", "ratio"},
		{"http.overhead_ms", "ms"}, {"bench.gen_lag_p99_ms", "ms"}, {"bench.gen_s", "s"},
		{"bench.trace_overhead_ratio", "ratio"},
	}
)

// sizes fixes the input volume of the workloads. fullSizes is what the
// benchmark measures; the smoke test shrinks it.
type sizes struct {
	kernelScale  int  // workload.Run scale of kernel-batch and serve-read
	appendScale  int  // workload.Run scale of append-durable
	tinyKernel   bool // keep only two macro benchmarks of the kernel mix
	deepTypes    int
	deepRounds   int
	appendBlocks int     // single-block appends per append-durable episode
	probeAppends int     // appends in the layer probe's durable-append replica
	serveRate    float64 // serve-read open-loop rate, requests per second
	readerRate   float64 // append-durable reader rate, requests per second
	probeRate    float64 // layer probe HTTP phase rate, requests per second
	tacValues    int     // distinct ?tac= values in the serve mix
	setupReps    int     // set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	kernelScale: 1, appendScale: 2,
	deepTypes: 48, deepRounds: 40,
	appendBlocks: 64, probeAppends: 8,
	serveRate: 250, readerRate: 100, probeRate: 200,
	tacValues: 100, setupReps: 9,
}

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	measure  time.Duration // length of the measured phase
	size     sizes
	tmp      string    // scratch directory, removed when the run ends
	tr       *tracer   // non-nil for a traced run
	log      io.Writer // progress and diagnostics
}

// outcome is what a run measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// check counts one verified output.
func (o *outcome) check(ok bool, log io.Writer, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(log, "check failed: "+format+"\n", args...)
	}
}

// workloadDef pairs a workload's input with its measured phase. A traced
// run takes the same input through the layer probe instead.
type workloadDef struct {
	input func(rc *runConfig) ([]byte, uint64, error)
	run   func(ctx context.Context, rc *runConfig, in *traceInput) (*outcome, error)
}

var workloads = map[string]workloadDef{
	"kernel-batch":    {kernelInput, batch},
	"deep-lock-batch": {deepLockInput, batch},
	"serve-read":      {kernelInput, serveRead},
	"append-durable":  {appendInput, appendDurable},
}

// kernelInput is the simulated-kernel benchmark mix.
func kernelInput(rc *runConfig) ([]byte, uint64, error) {
	return kernelTrace(rc.seed, rc.size.kernelScale, rc.size.tinyKernel)
}

// appendInput is the kernel mix at the append workload's larger scale.
func appendInput(rc *runConfig) ([]byte, uint64, error) {
	return kernelTrace(rc.seed, rc.size.appendScale, rc.size.tinyKernel)
}

func deepLockInput(rc *runConfig) ([]byte, uint64, error) {
	return deepLockTrace(rc.seed, rc.size.deepTypes, rc.size.deepRounds)
}

// metricJSON and resultJSON are the result line's shape.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// record is one run as stored by --out: the result line plus what it
// ran on, so every number can be traced to a host and a build.
type record struct {
	Set        string     `json:"set,omitempty"`
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Trace      int        `json:"trace"`
	NCPU       int        `json:"ncpu"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	Commit     string     `json:"commit"`
	Result     resultJSON `json:"result"`
}

type resultsFile struct {
	Runs []record `json:"runs"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: kernel-batch, deep-lock-batch, serve-read or append-durable")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "length of the measured phase in seconds")
	traced := fl.Int("trace", 0, "1 runs the traced layer probe and prints per-layer metrics")
	spansPath := fl.String("spans", "", "span file of a traced run (default .bench_build/spans-WORKLOAD-SEED.json)")
	out := fl.String("out", "", "append the run record to this results file")
	set := fl.String("set", "", "label of the run in the results file")
	self := fl.Bool("selfcheck", false, "render the clock and blk examples and compare them with the committed goldens")
	testdata := fl.String("testdata", "testdata", "directory holding clock_doc.golden and blk_doc.golden")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *self {
		if err := selfcheck(context.Background(), *testdata); err != nil {
			fmt.Fprintf(stderr, "bench: selfcheck: %v\n", err)
			return 1
		}
		fmt.Fprintln(stderr, "bench: selfcheck: clock and blk documentation match the goldens")
		return 0
	}
	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "bench: want --workload one of %v, --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	if *traced == 1 && *spansPath == "" {
		*spansPath = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *name, *seed))
	}
	res, err := runWorkload(context.Background(), *name, *seed, time.Duration(*seconds*float64(time.Second)),
		*traced == 1, *spansPath, fullSizes, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if *out != "" {
		rec := record{
			Set: *set, Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traced,
			NCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Result: *res,
		}
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", *out, err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload runs one workload in a fresh scratch directory and turns
// its outcome into the result line, refusing an outcome that misses a
// metric the benchmark promises.
func runWorkload(ctx context.Context, name string, seed int64, measure time.Duration, traced bool, spansPath string, sz sizes, log io.Writer) (*resultJSON, error) {
	tmp, err := os.MkdirTemp("", "lockdoc-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	rc := &runConfig{workload: name, seed: seed, measure: measure, size: sz, tmp: tmp, log: log}
	w := workloads[name]
	in, err := newInput(rc, w.input)
	if err != nil {
		return nil, fmt.Errorf("generating the input: %w", err)
	}
	defs := e2eMetrics
	var o *outcome
	if traced {
		rc.tr = newTracer()
		defs = layerMetrics
		o, err = probe(ctx, rc, in)
	} else {
		o, err = w.run(ctx, rc, in)
	}
	if err != nil {
		return nil, err
	}
	if err := finite(o.metrics); err != nil {
		return nil, err
	}
	res := &resultJSON{
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("run produced no %s", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("run attempted no operation")
	}
	if traced {
		if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
			return nil, err
		}
		if err := rc.tr.write(spansPath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

// finite reports whether every metric value can be written as JSON.
func finite(m map[string]float64) error {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func appendRecord(path string, rec record) error {
	var f resultsFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &f); err != nil {
			return err
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	f.Runs = append(f.Runs, rec)
	data, err = json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
