package segstore

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"lockdoc/internal/analysis"
	"lockdoc/internal/blk"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/obs"
	"lockdoc/internal/trace"
)

// blkRaw encodes a short run of the simulated block layer as a headered
// v2 trace: about 85 observation groups, of which each one-block append
// leaves a few to a few dozen untouched — the mix copy-forward
// compaction is for (the clock workload has at most three groups).
func blkRaw(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2, SyncInterval: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blk.RunExample(w, 1, 20); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// renderBlkDoc derives d's rules and renders every block-layer type's
// document.
func renderBlkDoc(t testing.TB, d *db.DB) string {
	t.Helper()
	results, err := core.DeriveAll(context.Background(), d, core.Options{AcceptThreshold: core.DefaultAcceptThreshold})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, label := range []string{"bio", "blk_plug", "elevator_queue", "gendisk", "hd_struct", "request", "request_queue"} {
		b.WriteString(analysis.GenerateDoc(d, results, label))
	}
	return b.String()
}

// appendViews streams the first headBlocks sync blocks of raw and then
// up to appends further blocks, one at a time, through a StreamDeriver —
// the durable append path of lockdocd. It returns the sealed view after
// the head and after every appended block, plus the bytes of each step
// (the headered head, then bare blocks).
func appendViews(t testing.TB, raw []byte, headBlocks, appends int) ([]*db.DB, [][]byte) {
	t.Helper()
	ctx := context.Background()
	head, tail := splitAtSync(t, raw, headBlocks)
	sd := core.NewStreamDeriver(db.New(db.Config{}), core.Options{AcceptThreshold: core.DefaultAcceptThreshold})
	r, err := trace.NewReader(bytes.NewReader(head))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Consume(r); err != nil {
		t.Fatal(err)
	}
	view, _, _, err := sd.Derive(ctx)
	if err != nil {
		t.Fatal(err)
	}
	views, chunks := []*db.DB{view}, [][]byte{head}
	for ; appends > 0 && len(tail) > 0; appends-- {
		n := len(tail)
		if i := bytes.Index(tail[1:], syncNeedle); i >= 0 {
			n = i + 1
		}
		block := tail[:n]
		tail = tail[n:]
		if _, err := sd.Consume(trace.NewContinuationReader(bytes.NewReader(block), trace.ReaderOptions{})); err != nil {
			t.Fatal(err)
		}
		if view, _, _, err = sd.Derive(ctx); err != nil {
			t.Fatal(err)
		}
		views, chunks = append(views, view), append(chunks, block)
	}
	return views, chunks
}

// stateBytes reads the newest state segment file of s.
func stateBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	name := ""
	for _, e := range s.Manifest() {
		if e.Kind == KindState {
			name = e.Name
		}
	}
	if name == "" {
		t.Fatal("store holds no state segment")
	}
	data, err := os.ReadFile(filepath.Join(s.Dir(), name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fullEncode compacts view into a store that has never seen any other
// view, so every group is encoded afresh, and returns the state segment.
func fullEncode(t testing.TB, view *db.DB) []byte {
	t.Helper()
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Compact(view); err != nil {
		t.Fatal(err)
	}
	return stateBytes(t, s)
}

// TestCompactCopyForwardByteIdentical is the differential test for
// copy-forward compaction: a store compacting a base view and then the
// view after every one-block append (copying clean groups' blocks
// forward) must write each state segment byte for byte as a store
// reopened before every compaction (encoding every group) does, reuse
// exactly the groups the append left clean, and reopen to the live
// view's documentation.
func TestCompactCopyForwardByteIdentical(t *testing.T) {
	views, chunks := appendViews(t, blkRaw(t), 3, 8)
	if len(views) < 4 {
		t.Fatalf("only %d views; the trace has too few sync blocks", len(views))
	}
	m := NewMetrics(obs.NewRegistry())
	incDir, fullDir := t.TempDir(), t.TempDir()
	inc, err := Open(incDir, Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { inc.Close() }()

	dirty := 0
	for i, view := range views {
		if i == 0 {
			err = inc.ResetTrace(chunks[i])
		} else {
			err = inc.AppendTrace(chunks[i])
		}
		if err != nil {
			t.Fatal(err)
		}
		before := m.BlocksReused.Value()
		if err := inc.Compact(view); err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		if i > 0 {
			d := view.DirtyGroupsSince(views[i-1])
			dirty += d
			want = uint64(len(view.Groups()) - d)
		}
		if got := m.BlocksReused.Value() - before; got != want {
			t.Errorf("view %d: %d blocks copied forward, want %d (groups minus dirty)", i, got, want)
		}

		full, err := Open(fullDir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := full.Compact(view); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stateBytes(t, inc), stateBytes(t, full)) {
			t.Fatalf("view %d: copy-forward state segment differs from a full re-encode", i)
		}
		full.Close()
	}
	if dirty == 0 || m.BlocksReused.Value() == 0 {
		t.Fatalf("appends dirtied %d groups and reused %d blocks; the test needs both",
			dirty, m.BlocksReused.Value())
	}

	want := renderBlkDoc(t, views[len(views)-1])
	if err := inc.Close(); err != nil {
		t.Fatal(err)
	}
	if inc, err = Open(incDir, Options{}); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := inc.LoadState()
	if err != nil || !ok {
		t.Fatalf("LoadState: ok=%v err=%v", ok, err)
	}
	if got := renderBlkDoc(t, snap); got != want {
		t.Errorf("reopened doc differs from the live view's:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestCompactForgetsOnReset: DropCache, ResetTrace and a RepairTrace
// that cuts the chain each release the copy-forward index, so the next
// Compact — even of the very view just compacted — encodes every group
// and the store pins no group of an evicted or replaced trace.
func TestCompactForgetsOnReset(t *testing.T) {
	views, chunks := appendViews(t, blkRaw(t), 3, 1)
	for _, tc := range []struct {
		name  string
		reset func(t *testing.T, s *Store)
	}{
		{"DropCache", func(t *testing.T, s *Store) { s.DropCache() }},
		{"ResetTrace", func(t *testing.T, s *Store) {
			if err := s.ResetTrace(chunks[0]); err != nil {
				t.Fatal(err)
			}
		}},
		{"RepairTrace", func(t *testing.T, s *Store) {
			m := s.Manifest()
			path := filepath.Join(s.Dir(), m[1].Name) // the appended trace segment
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xA5
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if n, err := s.RepairTrace(); n == 0 || err != nil {
				t.Fatalf("RepairTrace = %d, %v; want a cut", n, err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMetrics(obs.NewRegistry())
			s, err := Open(t.TempDir(), Options{Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.ResetTrace(chunks[0]); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendTrace(chunks[1]); err != nil {
				t.Fatal(err)
			}
			for _, v := range views {
				if err := s.Compact(v); err != nil {
					t.Fatal(err)
				}
			}
			if m.BlocksReused.Value() == 0 {
				t.Fatal("the second compaction copied nothing forward")
			}
			tc.reset(t, s)
			if s.prev.seg != nil || s.prev.blocks != nil {
				t.Fatal("the copy-forward index survived the reset")
			}
			before := m.BlocksReused.Value()
			if err := s.Compact(views[1]); err != nil {
				t.Fatal(err)
			}
			if got := m.BlocksReused.Value(); got != before {
				t.Errorf("compaction after the reset copied %d blocks forward, want 0", got-before)
			}
		})
	}
}

// TestCompactReencodesDamagedSource flips a byte inside a remembered
// block: the CRC re-check must catch it and Compact must encode that
// group afresh rather than copy the damage into the new segment.
func TestCompactReencodesDamagedSource(t *testing.T) {
	views, _ := appendViews(t, blkRaw(t), 3, 1)
	base, next := views[0], views[1]
	m := NewMetrics(obs.NewRegistry())
	s, err := Open(t.TempDir(), Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Compact(base); err != nil {
		t.Fatal(err)
	}
	clean := len(next.Groups()) - next.DirtyGroupsSince(base)
	if clean == 0 {
		t.Fatal("the append left no clean group to damage")
	}
	damaged := false
	for _, g := range next.Groups() {
		if i, ok := s.prev.blocks[g]; ok {
			b := s.prev.seg.blocks[i]
			s.prev.seg.data[b.off+b.comp/2] ^= 0xFF
			damaged = true
			break
		}
	}
	if !damaged {
		t.Fatal("no clean group found in the copy-forward index")
	}
	if err := s.Compact(next); err != nil {
		t.Fatal(err)
	}
	if got, want := m.BlocksReused.Value(), uint64(clean-1); got != want {
		t.Errorf("%d blocks copied forward, want %d (every clean group but the damaged one)", got, want)
	}
	if !bytes.Equal(stateBytes(t, s), fullEncode(t, next)) {
		t.Error("state segment differs from a full re-encode: the damaged block was copied")
	}
}

// TestCompactConcurrentDropCache races compactions of successive views
// against DropCache on one store (run it under -race): every Compact
// succeeds, and once the racing stops the store still writes exactly
// what a full re-encode writes.
func TestCompactConcurrentDropCache(t *testing.T) {
	views, _ := appendViews(t, blkRaw(t), 3, 6)
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.DropCache()
			}
		}
	}()
	for round := 0; round < 3; round++ {
		for _, v := range views {
			if err := s.Compact(v); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	last := views[len(views)-1]
	if err := s.Compact(last); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, s), fullEncode(t, last)) {
		t.Error("state segment after the race differs from a full re-encode")
	}
}
