package lockdoc_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lockdoc/internal/analysis"
	"lockdoc/internal/blk"
	"lockdoc/internal/db"
	"lockdoc/internal/fs"
	"lockdoc/internal/obs"
	"lockdoc/internal/segstore"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

// kernelMixTrace runs the simulated-kernel benchmark mix at the given
// scale (seed 1, PreemptEvery 97: the input of the serve-read and
// append-durable workloads) and returns its v2 trace.
func kernelMixTrace(scale int) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	if _, err := workload.Run(w, workload.Options{Seed: 1, Scale: scale, PreemptEvery: 97}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkLines renders one line per documented rule: its label, verdict,
// absolute support s_a and relative support s_r.
func checkLines(t *testing.T, d *db.DB, specs []analysis.RuleSpec) string {
	t.Helper()
	results, err := analysis.CheckAll(d, specs)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s %s sa=%d sr=%.4f\n", r.Spec.Label(), r.Verdict, r.Sa, r.Sr)
	}
	return b.String()
}

// TestCheckResultsGolden pins the outcome of every documented-rule
// check: fs.DocumentedRules on the scale-1 kernel mix and
// blk.DocumentedRules on the blk golden trace. Between them the two
// corpora resolve groups of unsubclassed types, merge plain inode rules
// across the inode subclasses, narrow them to one subclass, and name
// members and locks that were never observed. A store-backed leg seals the mix into a segment store,
// reopens it and checks straight after LoadState: the lines must be
// the same, and the golden records how many blocks LoadState inflated
// (the metadata block and every definition chunk) and how many the
// checks did (one per group a rule names), so a lookup that hydrates
// groups no rule names fails here.
//
// Regenerate after an intentional change with
//
//	go test -run TestCheckResultsGolden -update .
func TestCheckResultsGolden(t *testing.T) {
	mix, err := kernelMixTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(mix))
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.Import(r, fs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The fs corpus documents the plain inode type only; its inode rules
	// narrowed to one observed and one absent subclass add exact
	// subclass lookups.
	specs := fs.DocumentedRules()
	for _, spec := range fs.DocumentedRules() {
		if spec.Type != "inode" {
			continue
		}
		for _, sub := range []string{"ext4", "xfs"} {
			spec.Subclass = sub
			specs = append(specs, spec)
		}
	}
	fsLines := checkLines(t, d, specs)

	r, err = trace.NewReader(bytes.NewReader(blkV2Trace(t)))
	if err != nil {
		t.Fatal(err)
	}
	bd, err := db.Import(r, fs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	blkLines := checkLines(t, bd, blk.DocumentedRules())

	dir := t.TempDir()
	s, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ResetTrace(mix); err != nil {
		t.Fatal(err)
	}
	live := db.New(fs.DefaultConfig())
	if r, err = trace.NewReader(bytes.NewReader(mix)); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Consume(r); err != nil {
		t.Fatal(err)
	}
	if _, err := live.SealTo(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := segstore.NewMetrics(obs.NewRegistry())
	s, err = segstore.Open(dir, segstore.Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	view, ok, err := s.LoadState()
	if err != nil || !ok {
		t.Fatalf("LoadState: ok=%v err=%v", ok, err)
	}
	loaded := m.BlocksInflated.Value()
	if want := uint64(1 + view.DefChunks()); loaded != want {
		t.Errorf("LoadState inflated %d blocks, want the metadata block and %d definition chunks", loaded, want-1)
	}
	if got := checkLines(t, view, specs); got != fsLines {
		t.Errorf("store-backed checks diverge from the imported mix:\n--- store ---\n%s--- import ---\n%s", got, fsLines)
	}
	if err := view.HydrateErr(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	fmt.Fprintf(&out, "== fs.DocumentedRules and its inode rules per subclass, scale-1 kernel mix\n%s", fsLines)
	fmt.Fprintf(&out, "== blk.DocumentedRules, blk example\n%s", blkLines)
	fmt.Fprintf(&out, "== store-backed fs checks after LoadState\nlockdoc_segstore_blocks_inflated_total by LoadState %d\nlockdoc_segstore_blocks_inflated_total by the checks %d\n",
		loaded, m.BlocksInflated.Value()-loaded)

	golden := filepath.Join("testdata", "checks.golden")
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
		t.Errorf("check results diverge from %s:\n--- got ---\n%s", golden, out.String())
	}
}
