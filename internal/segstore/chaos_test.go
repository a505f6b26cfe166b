package segstore

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"lockdoc/internal/faultinject"
	"lockdoc/internal/manifest"
)

// TestChaosSoak drives cycles of trace appends, state compactions and
// occasional full resets against a store whose filesystem randomly
// tears segment writes, cuts manifest appends mid-line, loses renames
// and fails flakily, with the process "crashing" (Close + reopen from
// the directory) at random points. The invariant: the store always
// replays exactly the acknowledged trace bytes — a rejected operation
// leaves no residue, before or after a crash — and reopen loads exactly
// the last acknowledged compacted state, or none if compaction was
// never acknowledged. The RNG is seeded so a failing run replays.
//
// Unlike the server (which wraps durability writes in a retry policy),
// the store itself has none, so even transient injected faults are
// expected to fail the operation; what matters is that the failure is
// clean.
func TestChaosSoak(t *testing.T) {
	const cycles = 60
	const seed = 20260807
	rng := rand.New(rand.NewSource(seed))
	t.Logf("segstore chaos soak: %d cycles, seed %d", cycles, seed)

	raw := buildRaw(t, 600)
	head, rest := splitAtSync(t, raw, 2)

	// Cut the remainder into chunks of 1-4 sync blocks. Chunks are
	// contiguous slices of raw, so the acknowledged byte string is
	// always a prefix of raw and decodes with the plain reader.
	var marks []int
	for from := 1; ; {
		i := bytes.Index(rest[from:], syncNeedle)
		if i < 0 {
			break
		}
		from += i + 1
		marks = append(marks, from-1)
	}
	marks = append(marks, len(rest))
	var chunks [][]byte
	for start, mi := 0, 0; start < len(rest); {
		mi += 1 + rng.Intn(4)
		if mi >= len(marks) {
			mi = len(marks) - 1
		}
		chunks = append(chunks, rest[start:marks[mi]])
		start = marks[mi]
	}
	if len(chunks) < 4 {
		t.Fatalf("fixture cut into %d chunks, want >= 4", len(chunks))
	}

	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(manifest.OSFS{})
	open := func() *Store {
		s, err := Open(dir, Options{FS: ffs})
		if err != nil {
			t.Fatalf("opening store: %v", err)
		}
		return s
	}
	s := open()

	acked := append([]byte(nil), head...) // acknowledged trace bytes
	var ackedCSV []byte                   // observations of the last acknowledged Compact
	next := 0                             // next chunk to append

	if err := s.ResetTrace(head); err != nil {
		t.Fatalf("seed reset: %v", err)
	}

	verifyTrace := func(cycle int, s *Store) {
		t.Helper()
		want := decodeAll(t, acked)
		got := storeEvents(t, s)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cycle %d: store replays %d events, acknowledged state has %d",
				cycle, len(got), len(want))
		}
	}

	crashAndReopen := func(cycle int) {
		t.Helper()
		// The process dies: nothing survives but the directory. The
		// reboot also clears any in-flight disk faults.
		ffs.Clear()
		if err := s.Close(); err != nil {
			t.Fatalf("cycle %d: close: %v", cycle, err)
		}
		s = open()
		verifyTrace(cycle, s)
		d, ok, err := s.LoadState()
		if err != nil {
			t.Fatalf("cycle %d: LoadState: %v", cycle, err)
		}
		if ok && ackedCSV == nil {
			t.Fatalf("cycle %d: reopen loaded state that was never acknowledged", cycle)
		}
		if !ok && ackedCSV != nil {
			t.Fatalf("cycle %d: acknowledged compacted state lost", cycle)
		}
		if ok {
			if got := exportCSV(t, d); !bytes.Equal(got, ackedCSV) {
				t.Fatalf("cycle %d: reopened state differs from the acknowledged compaction", cycle)
			}
		}
	}

	for i := 0; i < cycles; i++ {
		// Arm at most one disk fault for the cycle; counters restart at
		// zero each cycle, so after=0 targets the first matching op.
		ffs.Clear()
		switch rng.Intn(6) {
		case 0: // healthy disk
		case 1:
			ffs.TornWrite(0, rng.Float64()) // segment temp file torn mid-write
		case 2:
			ffs.TornAppend(0, rng.Float64()) // manifest line cut mid-append
		case 3:
			ffs.PartialRename(0) // crash between temp write and publish
		case 4:
			ffs.FailN(faultinject.OpWrite, 0, 2, true) // flaky disk
		case 5:
			ffs.FailN(faultinject.OpWrite, 0, 10, false) // dead disk
		}

		switch {
		case i%17 == 16: // full reset back to the head
			if err := s.ResetTrace(head); err == nil {
				acked = append(acked[:0:0], head...)
				ackedCSV = nil
				next = 0
			}
		case rng.Intn(2) == 0 && next < len(chunks): // append one chunk
			if err := s.AppendTrace(chunks[next]); err == nil {
				acked = append(acked, chunks[next]...)
				next++
			}
		default: // compact the acknowledged view
			d := importRaw(t, acked)
			csv := exportCSV(t, d)
			if err := s.Compact(d); err == nil {
				ackedCSV = csv
			}
		}

		// Fault or no fault, the store on disk now holds exactly the
		// acknowledged bytes (reads are healthy again from here).
		ffs.Clear()
		verifyTrace(i, s)

		if rng.Intn(4) == 0 {
			crashAndReopen(i)
		}
	}
	// Whatever the last cycle left behind, a final crash must still
	// reopen to the acknowledged state exactly.
	crashAndReopen(cycles)
	_ = s.Close()
}
