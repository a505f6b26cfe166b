// End-to-end pipeline pin: run the clock-counter workload on the
// simulated kernel, record a v2 trace, import it, derive rules and
// render the generated documentation (Fig. 8 style), comparing the
// result byte-for-byte against a committed golden file. The same
// document must come out of the incremental path — prefix import,
// sealed snapshot, appended continuation, delta re-derivation — or the
// equivalence the incremental subsystem promises is broken somewhere
// between the codec and the doc generator. Both paths are exercised
// twice: bare, and with every pipeline stage instrumented through an
// obs.Registry, pinning that observability never changes results.
//
// Regenerate the golden after an intentional output change with
//
//	go test -run TestEndToEndGoldenDoc -update .
package lockdoc_test

import (
	"bytes"
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lockdoc/internal/analysis"
	"lockdoc/internal/apiclient"
	"lockdoc/internal/blk"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/fs"
	"lockdoc/internal/obs"
	"lockdoc/internal/segstore"
	"lockdoc/internal/server"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// clockV2Trace records the paper's clock-counter example as a v2 trace
// with small sync blocks so it splits at many boundaries.
func clockV2Trace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2, SyncInterval: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.RunClockExample(w, 42, 1000); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pipelineDocs runs the batch and incremental pipelines over the clock
// trace and returns both rendered documents. A nil registry runs the
// stages uninstrumented; a non-nil one threads trace, db and core
// metrics through every stage.
func pipelineDocs(t *testing.T, data []byte, reg *obs.Registry) (batch, incremental string) {
	t.Helper()
	ctx := context.Background()
	opt := core.Options{AcceptThreshold: core.DefaultAcceptThreshold, Metrics: core.NewMetrics(reg)}
	ro := trace.ReaderOptions{Metrics: trace.NewMetrics(reg)}
	cfg := db.Config{Metrics: db.NewMetrics(reg)}

	// Batch pipeline: one-shot import and full derivation.
	r, err := trace.NewReaderOptions(bytes.NewReader(data), ro)
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.Import(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := core.DeriveAll(ctx, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	batch = analysis.GenerateDoc(d, results, "clock")

	// Incremental pipeline: consume a prefix, seal, delta-derive, then
	// append the remaining blocks and delta-derive again.
	needle := []byte{0xFF, 'L', 'K', 'S', 'Y'}
	first := bytes.Index(data, needle)
	split := bytes.Index(data[first+1:], needle)
	if first < 0 || split < 0 {
		t.Fatal("clock trace has fewer than two sync blocks")
	}
	split += first + 1

	live := db.New(cfg)
	pr, err := trace.NewReaderOptions(bytes.NewReader(data[:split]), ro)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Consume(pr); err != nil {
		t.Fatal(err)
	}
	dd := core.NewDeltaDeriver(opt)
	if _, _, err := dd.DeriveAll(ctx, live.Seal()); err != nil { // warm the per-group cache on the prefix
		t.Fatal(err)
	}

	cr := trace.NewContinuationReader(bytes.NewReader(data[split:]), ro)
	if _, err := live.Consume(cr); err != nil {
		t.Fatal(err)
	}
	view := live.Seal()
	incResults, stats, err := dd.DeriveAll(ctx, view)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Groups == 0 {
		t.Fatal("delta derivation saw no observation groups")
	}
	incremental = analysis.GenerateDoc(view, incResults, "clock")
	return batch, incremental
}

func TestEndToEndGoldenDoc(t *testing.T) {
	data := clockV2Trace(t)
	doc, inc := pipelineDocs(t, data, nil)

	golden := filepath.Join("testdata", "clock_doc.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if doc != string(want) {
		t.Errorf("generated documentation diverges from %s:\n--- got ---\n%s--- want ---\n%s", golden, doc, want)
	}
	if inc != doc {
		t.Errorf("incremental documentation diverges from batch:\n--- incremental ---\n%s--- batch ---\n%s", inc, doc)
	}
}

// TestEndToEndGoldenDocStoreBacked runs the third serving path end to
// end: the trace and its compacted state are written into a segment
// store, the store is closed and reopened cold (fresh mmap, no reuse of
// in-memory structures), and the reopened snapshot — observation groups
// hydrating lazily from compressed blocks — must derive and render the
// exact golden document. This is the byte-identity proof behind
// lockdocd -store-dir: restart-from-store equals import-from-trace.
func TestEndToEndGoldenDocStoreBacked(t *testing.T) {
	data := clockV2Trace(t)
	want, err := os.ReadFile(filepath.Join("testdata", "clock_doc.golden"))
	if err != nil {
		t.Fatalf("%v (run TestEndToEndGoldenDoc with -update to create it)", err)
	}

	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := segstore.Open(dir, segstore.Options{Metrics: segstore.NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ResetTrace(data); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	live := db.New(db.Config{})
	if _, err := live.Consume(r); err != nil {
		t.Fatal(err)
	}
	if _, err := live.SealTo(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold reopen: every hydration inflates from the mapped segment.
	s2, err := segstore.Open(dir, segstore.Options{Metrics: segstore.NewMetrics(obs.NewRegistry())})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	view, ok, err := s2.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("reopened store has no compacted state")
	}
	results, err := core.DeriveAll(context.Background(),
		view, core.Options{AcceptThreshold: core.DefaultAcceptThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if doc := analysis.GenerateDoc(view, results, "clock"); doc != string(want) {
		t.Errorf("store-backed documentation diverges from golden:\n--- got ---\n%s--- want ---\n%s", doc, want)
	}
	if err := view.HydrateErr(); err != nil {
		t.Fatalf("lazy hydration recorded an error: %v", err)
	}
}

// TestLevel6StoreFixture opens a segment store written by an earlier
// build, whose blocks were deflated at flate.DefaultCompression and
// whose state segment holds state format 1, which this build does not
// read. The fixture in testdata/store_level6 was written at commit
// 288b9b8 from the clock trace of clockV2Trace, split at the first sync
// marker at or after its midpoint:
//
//	s, _ := segstore.Open(dir, segstore.Options{})
//	s.ResetTrace(clock[:split])
//	s.AppendTrace(clock[split:])
//	live := db.New(db.Config{}) // then Consume both halves
//	live.SealTo(s)
//	s.Close()
//
// LoadState must refuse the older state without an error, which sends
// a server to replay the trace chain. The inflater does not depend on
// the level a block was written at, so that replay must render the
// clock golden, and so must the current state a compaction of the
// replay writes, once a reopen loads it.
func TestLevel6StoreFixture(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "clock_doc.golden"))
	if err != nil {
		t.Fatalf("%v (run TestEndToEndGoldenDoc with -update to create it)", err)
	}
	src := filepath.Join("testdata", "store_level6")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	render := func(what string, d *db.DB) {
		t.Helper()
		results, err := core.DeriveAll(context.Background(), d, core.Options{AcceptThreshold: core.DefaultAcceptThreshold})
		if err != nil {
			t.Fatal(err)
		}
		if doc := analysis.GenerateDoc(d, results, "clock"); doc != string(want) {
			t.Errorf("%s: documentation diverges from golden:\n--- got ---\n%s--- want ---\n%s", what, doc, want)
		}
		if err := d.HydrateErr(); err != nil {
			t.Errorf("%s: hydration: %v", what, err)
		}
	}
	open := func() *segstore.Store {
		t.Helper()
		s, err := segstore.Open(dir, segstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !s.StateCurrent() {
			t.Fatal("the state segment does not cover the trace chain")
		}
		return s
	}

	s := open()
	if view, ok, err := s.LoadState(); view != nil || ok || err != nil {
		t.Fatalf("LoadState of a format-1 state: ok=%v err=%v, want no state and no error", ok, err)
	}
	replayed, err := db.Import(trace.NewContinuationReader(s.TraceReader(), trace.ReaderOptions{}), db.Config{})
	if err != nil {
		t.Fatal(err)
	}
	render("replayed trace chain", replayed)
	if _, err := replayed.SealTo(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	defer s.Close()
	view, ok, err := s.LoadState()
	if err != nil || !ok {
		t.Fatalf("LoadState of the recompacted state: ok=%v err=%v", ok, err)
	}
	render("recompacted state", view)
}

// TestEndToEndGoldenDocObserved reruns both pipelines with every stage
// instrumented and pins (a) byte-identical output against the same
// golden file and (b) that the instruments actually recorded the run —
// observability must be a pure read-side channel.
func TestEndToEndGoldenDocObserved(t *testing.T) {
	data := clockV2Trace(t)
	reg := obs.NewRegistry()
	doc, inc := pipelineDocs(t, data, reg)

	want, err := os.ReadFile(filepath.Join("testdata", "clock_doc.golden"))
	if err != nil {
		t.Fatalf("%v (run TestEndToEndGoldenDoc with -update to create it)", err)
	}
	if doc != string(want) {
		t.Errorf("observed batch documentation diverges from golden:\n--- got ---\n%s--- want ---\n%s", doc, want)
	}
	if inc != doc {
		t.Errorf("observed incremental documentation diverges from batch:\n--- incremental ---\n%s--- batch ---\n%s", inc, doc)
	}

	var buf bytes.Buffer
	if err := (obs.PrometheusSink{}).Write(&buf, reg.Gather()); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, name := range []string{
		"lockdoc_trace_events_decoded_total",
		"lockdoc_db_events_consumed_total",
		"lockdoc_core_groups_mined_total",
		"lockdoc_core_delta_remined_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("instrumented run did not expose %s:\n%s", name, body)
		}
		if strings.Contains(body, name+" 0\n") {
			t.Errorf("instrument %s stayed 0 over a full pipeline run", name)
		}
	}
}

// TestEndToEndServerDoc closes the loop over HTTP: the clock trace
// uploaded through the typed API client must serve the exact golden
// document, both via the legacy /v1 aliases and the namespaced
// /v1/ns/default routes — the serving layer may not perturb a single
// byte of what the library pipeline produces.
func TestEndToEndServerDoc(t *testing.T) {
	data := clockV2Trace(t)
	want, err := os.ReadFile(filepath.Join("testdata", "clock_doc.golden"))
	if err != nil {
		t.Fatalf("%v (run TestEndToEndGoldenDoc with -update to create it)", err)
	}

	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	c := apiclient.New(ts.URL)
	if _, err := c.Upload(ctx, data); err != nil {
		t.Fatal(err)
	}
	doc, err := c.Doc(ctx, "clock")
	if err != nil {
		t.Fatal(err)
	}
	if doc != string(want) {
		t.Errorf("served documentation diverges from golden:\n--- got ---\n%s--- want ---\n%s", doc, want)
	}
	nsDoc, err := c.Namespace(server.DefaultNamespace).Doc(ctx, "clock")
	if err != nil {
		t.Fatal(err)
	}
	if nsDoc != doc {
		t.Error("/v1/ns/default/doc diverges from the legacy /v1/doc alias")
	}
}

// blkV2Trace records the simulated block-layer example as a v2 trace,
// mirroring clockV2Trace.
func blkV2Trace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2, SyncInterval: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blk.RunExample(w, 42, 60); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEndToEndGoldenBlkDoc pins the generated locking documentation of
// the simulated block layer, alongside clock_doc.golden. The import
// uses the standard configuration so the blk function and member
// blacklists are exercised end to end.
func TestEndToEndGoldenBlkDoc(t *testing.T) {
	data := blkV2Trace(t)
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.Import(r, fs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	results, err := core.DeriveAll(context.Background(), d, core.Options{AcceptThreshold: core.DefaultAcceptThreshold})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, label := range []string{"bio", "blk_plug", "elevator_queue", "gendisk", "hd_struct", "request", "request_queue"} {
		b.WriteString(analysis.GenerateDoc(d, results, label))
	}
	doc := b.String()

	golden := filepath.Join("testdata", "blk_doc.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if doc != string(want) {
		t.Errorf("generated blk documentation diverges from %s:\n--- got ---\n%s--- want ---\n%s", golden, doc, want)
	}
}
