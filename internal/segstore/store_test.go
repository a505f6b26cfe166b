package segstore

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lockdoc/internal/analysis"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/faultinject"
	"lockdoc/internal/manifest"
	"lockdoc/internal/obs"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

// buildRaw encodes the deterministic clock workload as a headered v2
// trace.
func buildRaw(t testing.TB, iterations int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2, SyncInterval: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.RunClockExample(w, 1, iterations); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// importRaw consumes a headered trace into a fresh store and seals it.
func importRaw(t testing.TB, raw []byte) *db.DB {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	d := db.New(db.Config{})
	if _, err := d.Consume(r); err != nil {
		t.Fatal(err)
	}
	return d.Seal()
}

// decodeAll reads every event from a headered trace.
func decodeAll(t testing.TB, raw []byte) []trace.Event {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// storeEvents replays the store's trace chain through a continuation
// reader.
func storeEvents(t testing.TB, s *Store) []trace.Event {
	t.Helper()
	r := trace.NewContinuationReader(s.TraceReader(), trace.ReaderOptions{})
	evs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("replaying store trace: %v", err)
	}
	return evs
}

// exportCSV renders the full observation table — hydrating every group
// — so two snapshots can be compared byte-for-byte.
func exportCSV(t testing.TB, d *db.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.ExportObservationsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var syncNeedle = []byte{0xFF, 'L', 'K', 'S', 'Y'}

// splitAtSync cuts a headered trace at its n-th sync marker (counting
// from 1), returning a headered prefix and a bare block continuation.
func splitAtSync(t testing.TB, raw []byte, n int) (head, tail []byte) {
	t.Helper()
	from := 1 // skip the first marker, which opens block 0
	for ; n > 0; n-- {
		i := bytes.Index(raw[from:], syncNeedle)
		if i < 0 {
			t.Fatalf("trace has too few sync markers")
		}
		from += i + 1
	}
	return raw[:from-1], raw[from-1:]
}

func TestTraceRoundTrip(t *testing.T) {
	raw := buildRaw(t, 300)
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ResetTrace(raw); err != nil {
		t.Fatal(err)
	}
	if !s.HasTrace() || s.HasState() {
		t.Fatalf("after ResetTrace: HasTrace=%v HasState=%v", s.HasTrace(), s.HasState())
	}
	want := decodeAll(t, raw)
	got := storeEvents(t, s)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("trace round trip mismatch: %d events in, %d out", len(want), len(got))
	}
}

func TestAppendTraceEquivalence(t *testing.T) {
	raw := buildRaw(t, 300)
	head, tail := splitAtSync(t, raw, 3)
	cut := len(splitAtSyncBytes(t, tail, 3))
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ResetTrace(head); err != nil {
		t.Fatal(err)
	}
	// Append the rest in two bare-block chunks.
	if err := s.AppendTrace(tail[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendTrace(tail[cut:]); err != nil {
		t.Fatal(err)
	}
	want := decodeAll(t, raw)
	got := storeEvents(t, s)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("append equivalence mismatch: %d events in, %d out", len(want), len(got))
	}
}

// splitAtSyncBytes returns the prefix of a bare block stream up to its
// n-th interior sync marker.
func splitAtSyncBytes(t testing.TB, blocks []byte, n int) []byte {
	t.Helper()
	from := 1
	for ; n > 0; n-- {
		i := bytes.Index(blocks[from:], syncNeedle)
		if i < 0 {
			t.Fatalf("block stream has too few sync markers")
		}
		from += i + 1
	}
	return blocks[:from-1]
}

func TestStateRoundTripReopen(t *testing.T) {
	raw := buildRaw(t, 300)
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, Options{Metrics: NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ResetTrace(raw); err != nil {
		t.Fatal(err)
	}
	live := importRaw(t, raw)
	want := exportCSV(t, live)
	if err := s.Compact(live); err != nil {
		t.Fatal(err)
	}
	if !s.HasState() {
		t.Fatal("no state after Compact")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: state must load lazily and render identically.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, ok, err := s2.LoadState()
	if err != nil || !ok {
		t.Fatalf("LoadState: ok=%v err=%v", ok, err)
	}
	if !snap.Sealed() {
		t.Fatal("loaded snapshot not sealed")
	}
	groups := snap.Groups()
	if len(groups) == 0 {
		t.Fatal("no groups in loaded state")
	}
	if n := snap.GroupCount(); n != len(groups) {
		t.Fatalf("GroupCount = %d, want %d (every stub counts)", n, len(groups))
	}
	stubs := 0
	for _, g := range groups {
		if g.Seqs == nil {
			stubs++
		}
	}
	if stubs != len(groups) {
		t.Fatalf("expected all %d groups to start as stubs, got %d", len(groups), stubs)
	}
	got := exportCSV(t, snap)
	if !bytes.Equal(want, got) {
		t.Fatalf("state round trip: CSV export differs (%d vs %d bytes)", len(want), len(got))
	}
	for _, g := range snap.Groups() {
		if g.Seqs == nil {
			t.Fatal("group still a stub after full export")
		}
	}
	if err := snap.HydrateErr(); err != nil {
		t.Fatal(err)
	}
}

func TestSealToCompacts(t *testing.T) {
	raw := buildRaw(t, 100)
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ResetTrace(raw); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	d := db.New(db.Config{})
	if _, err := d.Consume(r); err != nil {
		t.Fatal(err)
	}
	view, err := d.SealTo(s)
	if err != nil {
		t.Fatal(err)
	}
	if view == nil || !view.Sealed() {
		t.Fatal("SealTo did not return a sealed view")
	}
	if !s.HasState() {
		t.Fatal("SealTo did not compact into the store")
	}
}

func TestCompactSupersedesOldState(t *testing.T) {
	raw := buildRaw(t, 200)
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ResetTrace(raw); err != nil {
		t.Fatal(err)
	}
	live := importRaw(t, raw)
	if err := s.Compact(live); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(live); err != nil {
		t.Fatal(err)
	}
	states := 0
	for _, e := range s.Manifest() {
		if e.Kind == KindState {
			states++
		}
	}
	if states != 1 {
		t.Fatalf("expected exactly 1 state entry after recompaction, got %d", states)
	}
	// Exactly one state file on disk, too.
	names, err := manifest.OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			segFiles++
		}
	}
	if want := len(s.Manifest()); segFiles != want {
		t.Fatalf("%d segment files on disk, manifest has %d entries", segFiles, want)
	}
}

// TestBlockCacheEviction checks the read path that replaced the
// decompressed-block cache, on a reopened store: hydrating every group
// costs exactly one inflation per group, whether the groups hydrate one
// by one or through parallel derivation (whose workers share the
// snapshot's one inflater and buffer), and afterwards every group
// renders as it did in the sealed view that was compacted.
func TestBlockCacheEviction(t *testing.T) {
	raw := blkRaw(t)
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ResetTrace(raw); err != nil {
		t.Fatal(err)
	}
	sealed := importRaw(t, raw)
	if err := s.Compact(sealed); err != nil {
		t.Fatal(err)
	}
	s.Close()
	want := exportCSV(t, sealed)

	m := NewMetrics(obs.NewRegistry())
	s2, err := Open(dir, Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, tc := range []struct {
		name    string
		hydrate func(*db.DB) error
	}{
		{"sequential", func(d *db.DB) error {
			for _, g := range d.Groups() {
				if err := d.Hydrate(g); err != nil {
					return err
				}
			}
			return nil
		}},
		{"DeriveAll", func(d *db.DB) error {
			_, err := core.DeriveAll(context.Background(), d,
				core.Options{AcceptThreshold: core.DefaultAcceptThreshold, Parallelism: 4})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, ok, err := s2.LoadState()
			if err != nil || !ok {
				t.Fatalf("LoadState: ok=%v err=%v", ok, err)
			}
			groups := uint64(snap.GroupCount())
			before := m.BlocksInflated.Value()
			if err := tc.hydrate(snap); err != nil {
				t.Fatal(err)
			}
			if got := m.BlocksInflated.Value() - before; got != groups {
				t.Errorf("hydrating %d groups inflated %d blocks, want one each", groups, got)
			}
			if got := exportCSV(t, snap); !bytes.Equal(got, want) {
				t.Errorf("hydrated groups differ from the compacted view (%d vs %d CSV bytes)", len(got), len(want))
			}
			if got := m.BlocksInflated.Value() - before; got != groups {
				t.Errorf("rendering hydrated groups inflated %d more blocks", got-groups)
			}
			if err := snap.HydrateErr(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadAfterClose: once the store is closed, a stub group's
// hydration and a trace reader opened before the Close both fail with
// ErrClosed instead of reading the released segment bytes, and a trace
// reader opened after the Close fails with ErrClosed instead of reading
// as an empty chain.
func TestReadAfterClose(t *testing.T) {
	raw := buildRaw(t, 100)
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ResetTrace(raw); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(importRaw(t, raw)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok, err := s.LoadState()
	if err != nil || !ok {
		t.Fatalf("LoadState: ok=%v err=%v", ok, err)
	}
	r := s.TraceReader()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Hydrate(snap.Groups()[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("hydrating a stub after Close: %v, want ErrClosed", err)
	}
	if n, err := r.Read(make([]byte, 64)); n != 0 || !errors.Is(err, ErrClosed) {
		t.Errorf("reading the trace after Close: %d bytes, %v; want ErrClosed", n, err)
	}
	if n, err := s.TraceReader().Read(make([]byte, 64)); n != 0 || !errors.Is(err, ErrClosed) {
		t.Errorf("a trace reader opened after Close: %d bytes, %v; want ErrClosed", n, err)
	}
}

// TestReopenDamage is the damaged-store recovery table: each row
// corrupts the on-disk store a different way and asserts the reopen
// degrades exactly as designed — state falls back or is dropped, the
// trace survives as its valid prefix.
func TestReopenDamage(t *testing.T) {
	raw := buildRaw(t, 300)
	head, tail := splitAtSync(t, raw, 3)

	build := func(t *testing.T) string {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ResetTrace(head); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendTrace(tail); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(importRaw(t, raw)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	findSeg := func(t *testing.T, dir, kind string) string {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var name string
		for _, e := range s.Manifest() {
			if e.Kind == kind {
				name = e.Name // last one of that kind
			}
		}
		if name == "" {
			t.Fatalf("no %s segment", kind)
		}
		return filepath.Join(dir, name)
	}
	wantEvents := len(decodeAll(t, raw))
	headEvents := len(decodeAll(t, head))

	t.Run("bad-state-crc", func(t *testing.T) {
		dir := build(t)
		path := findSeg(t, dir, KindState)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xA5
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, ok, err := s.LoadState(); ok || err != nil {
			t.Fatalf("corrupt state loaded: ok=%v err=%v", ok, err)
		}
		if got := len(storeEvents(t, s)); got != wantEvents {
			t.Fatalf("trace replay after state corruption: %d events, want %d", got, wantEvents)
		}
	})

	t.Run("missing-state-file", func(t *testing.T) {
		dir := build(t)
		if err := os.Remove(findSeg(t, dir, KindState)); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, ok, err := s.LoadState(); ok || err != nil {
			t.Fatalf("missing state loaded: ok=%v err=%v", ok, err)
		}
		if got := len(storeEvents(t, s)); got != wantEvents {
			t.Fatalf("trace replay: %d events, want %d", got, wantEvents)
		}
	})

	t.Run("truncated-trace-tail", func(t *testing.T) {
		dir := build(t)
		path := findSeg(t, dir, KindTrace) // the appended (second) trace segment
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got := len(storeEvents(t, s)); got != headEvents {
			t.Fatalf("truncated tail: replay gave %d events, want the %d-event prefix", got, headEvents)
		}
		// State predates the damage and still serves.
		if _, ok, err := s.LoadState(); !ok || err != nil {
			t.Fatalf("state should survive trace damage: ok=%v err=%v", ok, err)
		}
	})

	t.Run("missing-manifest-entry", func(t *testing.T) {
		dir := build(t)
		// Drop the state line from the manifest; the file stays.
		s0, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var keep []manifest.Entry
		for _, e := range s0.Manifest() {
			if e.Kind != KindState {
				keep = append(keep, e)
			}
		}
		s0.Close()
		if err := manifest.Replace(manifest.OSFS{}, dir, keep); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, ok, err := s.LoadState(); ok || err != nil {
			t.Fatalf("unrecorded state loaded: ok=%v err=%v", ok, err)
		}
		if got := len(storeEvents(t, s)); got != wantEvents {
			t.Fatalf("trace replay: %d events, want %d", got, wantEvents)
		}
		// The orphan file's name must not be reused by the next write.
		if err := s.Compact(importRaw(t, raw)); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.LoadState(); !ok || err != nil {
			t.Fatalf("recompacted state: ok=%v err=%v", ok, err)
		}
	})

	t.Run("torn-manifest-tail", func(t *testing.T) {
		dir := build(t)
		f, err := os.OpenFile(filepath.Join(dir, manifest.Name), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString("v1 9 trace 123 00000000 seg-000"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got := len(storeEvents(t, s)); got != wantEvents {
			t.Fatalf("trace replay: %d events, want %d", got, wantEvents)
		}
		if _, ok, err := s.LoadState(); !ok || err != nil {
			t.Fatalf("state after torn manifest: ok=%v err=%v", ok, err)
		}
	})

	t.Run("state-older-than-trace", func(t *testing.T) {
		// A crash between AppendTrace and Compact: the state segment
		// precedes the newest trace segment in manifest order.
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ResetTrace(head); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(importRaw(t, head)); err != nil {
			t.Fatal(err)
		}
		if !s.StateCurrent() {
			t.Fatal("freshly compacted state is not current")
		}
		if err := s.AppendTrace(tail); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.StateCurrent() {
			t.Fatal("state compacted before the last commit reported current; reopen would serve it")
		}
		// What a reopen serves instead — a replay of the chain — is the
		// batch render of the full chain, not of the stale state.
		r := trace.NewContinuationReader(s.TraceReader(), trace.ReaderOptions{})
		d := db.New(db.Config{})
		if _, err := d.Consume(r); err != nil {
			t.Fatal(err)
		}
		if got, want := renderDoc(t, d.Seal()), renderDoc(t, importRaw(t, raw)); got != want {
			t.Errorf("replayed doc differs from the batch render of the full chain:\n--- want\n%s\n--- got\n%s", want, got)
		}
	})

	t.Run("trace-reader-transient-fault", func(t *testing.T) {
		// A transient fault opening a trace segment is not damage: the
		// reader returns it instead of ending the replay early, and a
		// reader opened once the fault has cleared replays every segment.
		dir := build(t)
		ffs := faultinject.NewFaultFS(manifest.OSFS{})
		s, err := Open(dir, Options{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ffs.Clear()
		ffs.FailN(faultinject.OpRead, 0, 1, true)
		if n, err := io.Copy(io.Discard, s.TraceReader()); n != 0 || !faultinject.IsInjected(err) {
			t.Fatalf("replay under a transient read fault: %d bytes, %v; want 0 and the fault", n, err)
		}
		if got := len(storeEvents(t, s)); got != wantEvents {
			t.Fatalf("replay after the fault cleared: %d events, want %d", got, wantEvents)
		}
	})

	t.Run("repair-damaged-trace", func(t *testing.T) {
		dir := build(t)
		path := findSeg(t, dir, KindTrace) // the appended (second) trace segment
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xA5
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The damaged segment and the state compacted past it go.
		if n, err := s.RepairTrace(); n != 2 || err != nil {
			t.Fatalf("RepairTrace = %d, %v; want the damaged trace and the state dropped", n, err)
		}
		s.Close()
		s, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got := len(s.Manifest()); got != 1 {
			t.Fatalf("repaired manifest has %d entries, want the head alone", got)
		}
		if n, err := s.RepairTrace(); n != 0 || err != nil {
			t.Fatalf("RepairTrace on an intact chain = %d, %v", n, err)
		}
		if got := len(storeEvents(t, s)); got != headEvents {
			t.Fatalf("repaired chain replays %d events, want the %d-event head", got, headEvents)
		}

		// A transient read fault is not damage: RepairTrace reports it
		// and leaves every entry, and every file, in place.
		dir = build(t)
		ffs := faultinject.NewFaultFS(manifest.OSFS{})
		s2, err := Open(dir, Options{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		ffs.Clear()
		ffs.FailN(faultinject.OpRead, 0, 1, true)
		if n, err := s2.RepairTrace(); n != 0 || !faultinject.IsInjected(err) {
			t.Fatalf("RepairTrace under a transient read fault = %d, %v; want 0 and the fault", n, err)
		}
		if n, err := s2.RepairTrace(); n != 0 || err != nil {
			t.Fatalf("RepairTrace after the fault cleared = %d, %v", n, err)
		}
		s2.Close()
		s2, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if got := len(s2.Manifest()); got != 3 {
			t.Fatalf("manifest after a transient fault has %d entries, want all 3", got)
		}
		if got := len(storeEvents(t, s2)); got != wantEvents {
			t.Fatalf("chain after a transient fault replays %d events, want %d", got, wantEvents)
		}
		if _, ok, err := s2.LoadState(); !ok || err != nil {
			t.Fatalf("state after a transient fault: ok=%v err=%v", ok, err)
		}
	})
}

// renderDoc derives d's rules and renders the clock type's document.
func renderDoc(t testing.TB, d *db.DB) string {
	t.Helper()
	results, err := core.DeriveAll(context.Background(), d, core.Options{AcceptThreshold: core.DefaultAcceptThreshold})
	if err != nil {
		t.Fatal(err)
	}
	return analysis.GenerateDoc(d, results, "clock")
}

func TestRejectsV1AndMisalignedTraces(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var v1 bytes.Buffer
	w, err := trace.NewWriterOptions(&v1, trace.WriterOptions{Version: trace.FormatV1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.RunClockExample(w, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.ResetTrace(v1.Bytes()); err == nil {
		t.Error("v1 trace accepted")
	}
	if err := s.AppendTrace([]byte("garbage that is not a sync block")); err == nil {
		t.Error("misaligned block bytes accepted")
	}
}
