package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func sampleEvents() []Event {
	return []Event{
		{Seq: 1, TS: 10, Kind: KindDefCtx, CtxID: 1, CtxKind: CtxTask, CtxName: "kworker/0"},
		{Seq: 2, TS: 11, Kind: KindDefType, TypeID: 3, TypeName: "inode", Members: []MemberDef{
			{Name: "i_state", Offset: 0, Size: 8},
			{Name: "i_lock", Offset: 8, Size: 4, IsLock: true},
			{Name: "i_count", Offset: 12, Size: 4, Atomic: true},
		}},
		{Seq: 3, TS: 12, Kind: KindDefFunc, FuncID: 7, File: "fs/inode.c", Line: 42, Func: "iget_locked"},
		{Seq: 4, TS: 13, Kind: KindDefLock, LockID: 9, LockName: "i_lock", Class: LockSpin, LockAddr: 4096 + 8, OwnerAddr: 4096},
		{Seq: 5, TS: 14, Ctx: 1, Kind: KindAlloc, AllocID: 1, TypeID: 3, Addr: 4096, Size: 128, Subclass: "ext4"},
		{Seq: 6, TS: 15, Ctx: 1, Kind: KindAcquire, LockID: 9, FuncID: 7, Line: 50},
		{Seq: 7, TS: 16, Ctx: 1, Kind: KindWrite, Addr: 4096, AccessSize: 8, FuncID: 7, StackID: 2, Value: 0xdead},
		{Seq: 8, TS: 17, Ctx: 1, Kind: KindRead, Addr: 4096, AccessSize: 8, FuncID: 7, StackID: 2},
		{Seq: 9, TS: 18, Ctx: 1, Kind: KindRelease, LockID: 9, FuncID: 7, Line: 55},
		{Seq: 10, TS: 19, Ctx: 1, Kind: KindFuncEnter, FuncID: 7},
		{Seq: 11, TS: 20, Ctx: 1, Kind: KindCoverage, FuncID: 7, Line: 43},
		{Seq: 12, TS: 21, Ctx: 1, Kind: KindFuncExit, FuncID: 7},
		{Seq: 13, TS: 30, Ctx: 1, Kind: KindFree, AllocID: 1, Addr: 4096},
		{Seq: 14, TS: 31, Ctx: 1, Kind: KindAcquire, LockID: 9, Reader: true, FuncID: 7, Line: 60},
		{Seq: 15, TS: 32, Ctx: 1, Kind: KindDefStack, StackID: 2, StackFuncs: []uint32{1, 4, 7}},
	}
}

func roundTrip(t *testing.T, events []Event) []Event {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatalf("Write event %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	return got
}

func TestCodecRoundTrip(t *testing.T) {
	events := sampleEvents()
	got := roundTrip(t, events)
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if !reflect.DeepEqual(got[i], events[i]) {
			t.Errorf("event %d mismatch:\n got %+v\nwant %+v", i, got[i], events[i])
		}
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := sampleEvents()
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != uint64(len(events)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(events))
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	_, err := NewReader(strings.NewReader("NOPExxxx"))
	if err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestReaderRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := sampleEvents()
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut in the middle of the stream: must yield an error, not silent EOF
	// mid-event. (A cut exactly at an event boundary is a clean EOF.)
	trunc := full[:len(full)-3]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.ReadAll()
	if err == nil {
		t.Fatal("expected error for truncated trace")
	}
}

func TestReaderRejectsBadKind(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0xEE) // invalid kind
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := r.Read(&ev); err == nil {
		t.Fatal("expected error for invalid event kind")
	}
}

func TestEmptyTrace(t *testing.T) {
	got := roundTrip(t, nil)
	if len(got) != 0 {
		t.Fatalf("got %d events from empty trace", len(got))
	}
}

func TestWriteUnknownKindFails(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&Event{Kind: Kind(200)}); err == nil {
		t.Fatal("expected error writing unknown kind")
	}
	// Writer must stay failed.
	if err := w.Write(&Event{Kind: KindFree}); err == nil {
		t.Fatal("expected sticky error")
	}
}

// randomAccessEvent builds a random but valid memory-access event stream
// for the property test.
func randomEvents(rng *rand.Rand, n int) []Event {
	evs := make([]Event, 0, n)
	var seq, ts uint64
	for i := 0; i < n; i++ {
		seq++
		ts += uint64(rng.Intn(100))
		kind := KindRead
		if rng.Intn(2) == 0 {
			kind = KindWrite
		}
		ev := Event{
			Seq: seq, TS: ts, Ctx: uint32(rng.Intn(16)), Kind: kind,
			Addr:       rng.Uint64() >> 8,
			AccessSize: uint32(1 << rng.Intn(4)),
			FuncID:     uint32(rng.Intn(1000)),
			StackID:    uint32(rng.Intn(1000)),
		}
		if kind == KindWrite {
			ev.Value = rng.Uint64() >> 1
		}
		evs = append(evs, ev)
	}
	return evs
}

func TestCodecRoundTripProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		events := randomEvents(rng, int(nRaw%64))
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for i := range events {
			if err := w.Write(&events[i]); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil {
			return false
		}
		if len(got) != len(events) {
			return false
		}
		for i := range events {
			if !reflect.DeepEqual(got[i], events[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStatsCollect(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{
		Events: 15, LockOps: 3, MemAccesses: 2, Reads: 1, Writes: 1,
		Allocations: 1, Frees: 1, Locks: 1, DynamicLocks: 1,
		Contexts: 1, Functions: 1, DataTypes: 1, Coverage: 1,
	}
	if s != want {
		t.Errorf("stats mismatch:\n got %+v\nwant %+v", s, want)
	}
	if !strings.Contains(s.String(), "15 recorded events") {
		t.Errorf("String() = %q lacks event count", s.String())
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindDefType; k < kindSentinel; k++ {
		if k.String() == "invalid" {
			t.Errorf("kind %d has no String name", k)
		}
	}
	if KindInvalid.String() != "invalid" {
		t.Errorf("KindInvalid.String() = %q", KindInvalid.String())
	}
}

func TestLockClassStrings(t *testing.T) {
	classes := []LockClass{LockSpin, LockMutex, LockRW, LockSem, LockRWSem, LockSeq, LockRCU, LockSoftIRQBH, LockHardIRQ}
	seen := map[string]bool{}
	for _, c := range classes {
		s := c.String()
		if s == "unknown-lock" || seen[s] {
			t.Errorf("class %d: bad or duplicate name %q", c, s)
		}
		seen[s] = true
	}
	if !LockMutex.Blocking() || LockSpin.Blocking() {
		t.Error("Blocking() misclassifies mutex/spinlock")
	}
}

func TestCtxKindStrings(t *testing.T) {
	if CtxTask.String() != "task" || CtxSoftIRQ.String() != "softirq" || CtxHardIRQ.String() != "hardirq" {
		t.Error("CtxKind names wrong")
	}
	if CtxKind(99).String() != "unknown" {
		t.Error("unknown ctx kind should stringify as unknown")
	}
}

func BenchmarkWriterMemoryAccess(b *testing.B) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	ev := Event{Kind: KindWrite, Addr: 123456, AccessSize: 8, FuncID: 17, StackID: 99}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Seq = uint64(i)
		ev.TS = uint64(i)
		if err := w.Write(&ev); err != nil {
			b.Fatal(err)
		}
		if buf.Len() > 1<<24 {
			buf.Reset()
		}
	}
}

// TestReaderNeverPanicsOnGarbage feeds random bytes to the reader: it
// must fail with an error, never panic, regardless of input — in both
// format versions and in both strict and lenient mode.
func TestReaderNeverPanicsOnGarbage(t *testing.T) {
	prop := func(seed int64, nRaw uint16, version bool, lenient bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 4096
		buf := make([]byte, 5+n)
		copy(buf, magic[:])
		if version {
			buf[4] = FormatV2
		} else {
			buf[4] = FormatV1
		}
		rng.Read(buf[5:])
		opts := ReaderOptions{Lenient: lenient, MaxErrors: 8}
		r, err := NewReaderOptions(bytes.NewReader(buf), opts)
		if err != nil {
			return true // header rejected: fine
		}
		var ev Event
		for i := 0; i < 10000; i++ {
			if err := r.Read(&ev); err != nil {
				return true // error is the expected outcome
			}
		}
		return true // decoding garbage as valid events is acceptable too
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestV1RoundTrip pins the legacy format: a v1 writer's bytes decode
// back identically, and the header actually says version 1.
func TestV1RoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	w, err := NewWriterOptions(&buf, WriterOptions{Version: FormatV1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[4]; got != FormatV1 {
		t.Fatalf("header version byte = %d, want %d", got, FormatV1)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != FormatV1 {
		t.Fatalf("Version() = %d, want 1", r.Version())
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Error("v1 round trip mismatch")
	}
}

// TestV2MultiBlockRoundTrip forces many small blocks and checks the
// delta chain survives the per-block resets.
func TestV2MultiBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	events := randomEvents(rng, 500)
	var buf bytes.Buffer
	w, err := NewWriterOptions(&buf, WriterOptions{SyncInterval: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != FormatV2 {
		t.Fatalf("Version() = %d, want 2", r.Version())
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Error("v2 multi-block round trip mismatch")
	}
}

// v2Fixture returns a multi-block v2 trace plus its events.
func v2Fixture(t *testing.T, n, syncEvery int) ([]byte, []Event) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	events := randomEvents(rng, n)
	var buf bytes.Buffer
	w, err := NewWriterOptions(&buf, WriterOptions{SyncInterval: syncEvery})
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), events
}

// corruptOneBlock flips a bit inside the payload of the second block.
func corruptOneBlock(t *testing.T, raw []byte) []byte {
	t.Helper()
	needles := findMarkers(raw)
	if len(needles) < 3 {
		t.Fatalf("fixture has %d blocks, want >= 3", len(needles))
	}
	bad := append([]byte(nil), raw...)
	// Somewhere strictly inside the second block's payload.
	off := needles[1] + (needles[2]-needles[1])/2
	bad[off] ^= 0x10
	return bad
}

func findMarkers(raw []byte) []int {
	var out []int
	for i := 0; i+len(syncMarker) <= len(raw); i++ {
		if bytes.Equal(raw[i:i+len(syncMarker)], syncMarker[:]) {
			out = append(out, i)
		}
	}
	return out
}

// TestLenientReaderResyncs corrupts one block and checks the lenient
// reader skips exactly that block, reports it, and keeps absolute
// sequence numbers intact after the marker reset.
func TestLenientReaderResyncs(t *testing.T) {
	raw, events := v2Fixture(t, 400, 32)
	bad := corruptOneBlock(t, raw)

	// Strict mode must fail with ErrCorrupt.
	r, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAll(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict read of corrupt trace = %v, want ErrCorrupt", err)
	}

	// Lenient mode recovers everything but the damaged block.
	r, err = NewReaderOptions(bytes.NewReader(bad), ReaderOptions{Lenient: true, MaxErrors: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Corruptions()) != 1 {
		t.Fatalf("Corruptions() = %v, want exactly one report", r.Corruptions())
	}
	rep := r.Corruptions()[0]
	if !errors.Is(rep.Cause, ErrCorrupt) || rep.Offset <= 0 {
		t.Errorf("bad report: %+v", rep)
	}
	if len(got) <= len(events)-64 || len(got) >= len(events) {
		t.Fatalf("recovered %d of %d events, want all but one 32-event block", len(got), len(events))
	}
	// Every recovered event must exist, verbatim, in the original
	// stream — resync must not fabricate or misnumber events.
	bySeq := make(map[uint64]Event, len(events))
	for _, ev := range events {
		bySeq[ev.Seq] = ev
	}
	for _, ev := range got {
		want, ok := bySeq[ev.Seq]
		if !ok || !reflect.DeepEqual(ev, want) {
			t.Fatalf("recovered event %d differs from original", ev.Seq)
		}
	}
}

// TestLenientReaderBudget: a zero budget fails fast on the first
// corruption with a wrapped ErrCorrupt.
func TestLenientReaderBudget(t *testing.T) {
	raw, _ := v2Fixture(t, 400, 32)
	bad := corruptOneBlock(t, raw)
	r, err := NewReaderOptions(bytes.NewReader(bad), ReaderOptions{Lenient: true, MaxErrors: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAll(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero-budget read = %v, want ErrCorrupt", err)
	}
}

// TestLenientReaderPassesSourceError: a lenient reader returns the
// error its source returned instead of charging it as corruption and
// salvaging the prefix. It charges only bytes it read and could not
// decode: a damaged block before the failure is still reported.
func TestLenientReaderPassesSourceError(t *testing.T) {
	raw, events := v2Fixture(t, 400, 32)
	needles := findMarkers(raw)
	v1 := func(events []Event) []byte {
		var buf bytes.Buffer
		w, err := NewWriterOptions(&buf, WriterOptions{Version: FormatV1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range events {
			if err := w.Write(&events[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v1All, v1Head := v1(events), v1(events[:100])
	// An invalid event kind after the first 100 events.
	v1Bad := append(append(append([]byte(nil), v1Head...), 0xEE), v1All[len(v1Head):]...)
	srcErr := errors.New("source failed")
	for _, tc := range []struct {
		name    string
		data    []byte
		cut     int // the source fails after this many bytes
		reports int
	}{
		// Inside the second block's payload.
		{"mid-block", raw, needles[1] + (needles[2]-needles[1])/2, 0},
		// The second block fails its CRC; the scan for the next marker
		// then runs into the failure two bytes into the third marker.
		{"mid-scan", corruptOneBlock(t, raw), needles[2] + 2, 1},
		// ... or into the payload of the third block, which the scan
		// found.
		{"mid-next-block", corruptOneBlock(t, raw), needles[2] + (needles[3]-needles[2])/2, 1},
		// A v1 trace has no blocks: somewhere in its middle, and
		// after a damaged event, while the rest is being dropped.
		{"v1", v1All, len(v1All) / 2, 0},
		{"v1-after-damage", v1Bad, len(v1Head) + 100, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := io.MultiReader(bytes.NewReader(tc.data[:tc.cut]), iotest.ErrReader(srcErr))
			r, err := NewReaderOptions(src, ReaderOptions{Lenient: true, MaxErrors: 4})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.ReadAll(); !errors.Is(err, srcErr) {
				t.Fatalf("ReadAll = %v, want the source's error", err)
			}
			if n := len(r.Corruptions()); n != tc.reports {
				t.Errorf("%d corruption reports, want %d: %v", n, tc.reports, r.Corruptions())
			}
		})
	}
	// A failure while reading the header is not a corrupt header.
	if _, err := NewReaderOptions(iotest.ErrReader(srcErr), ReaderOptions{Lenient: true}); !errors.Is(err, srcErr) {
		t.Errorf("NewReaderOptions over a failing source = %v, want the source's error", err)
	}
}

// TestLenientReaderGarbagePrefix: garbage inserted before the first
// block is skipped by scanning to the first sync marker.
func TestLenientReaderGarbagePrefix(t *testing.T) {
	raw, events := v2Fixture(t, 100, 32)
	needles := findMarkers(raw)
	bad := append([]byte(nil), raw[:needles[0]]...)
	bad = append(bad, []byte("!!garbage!!")...)
	bad = append(bad, raw[needles[0]:]...)
	r, err := NewReaderOptions(bytes.NewReader(bad), ReaderOptions{Lenient: true, MaxErrors: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("recovered %d events, want %d", len(got), len(events))
	}
	if r.BytesSkipped() == 0 {
		t.Error("BytesSkipped() = 0, want > 0")
	}
}

// TestV1LenientSalvagesPrefix: v1 has no sync markers, so lenient mode
// salvages the prefix before the corruption and reports the rest.
func TestV1LenientSalvagesPrefix(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	w, err := NewWriterOptions(&buf, WriterOptions{Version: FormatV1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()[:buf.Len()-5]
	r, err := NewReaderOptions(bytes.NewReader(bad), ReaderOptions{Lenient: true, MaxErrors: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(events) {
		t.Fatalf("salvaged %d events, want a strict prefix", len(got))
	}
	if len(r.Corruptions()) != 1 {
		t.Fatalf("Corruptions() = %v, want one report", r.Corruptions())
	}
}
