package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// growingTrace is a trace file a test writes in controlled slices, the
// way a live producer would: sequential appends, sometimes stopping in
// the middle of a sync block or even the header.
type growingTrace struct {
	t    *testing.T
	path string
	f    *os.File
}

func newGrowingTrace(t *testing.T) *growingTrace {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grow.lkdc")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return &growingTrace{t: t, path: path, f: f}
}

func (g *growingTrace) append(b []byte) {
	g.t.Helper()
	if _, err := g.f.Write(b); err != nil {
		g.t.Fatal(err)
	}
}

// collector is a Poll consumer that works the way db.DB.Consume does:
// it reads every event of the poll and, once the reader ends cleanly,
// folds the reader's corruption reports into its own ledger.
type collector struct {
	events  []Event
	reports []CorruptionReport
	skipped int64
}

func (c *collector) consume(r *Reader) (int, error) {
	n := 0
	for {
		var ev Event
		err := r.Read(&ev)
		if err == io.EOF {
			c.reports = append(c.reports, r.Corruptions()...)
			c.skipped += r.BytesSkipped()
			return n, nil
		}
		if err != nil {
			return n, err
		}
		c.events = append(c.events, ev)
		n++
	}
}

// discard is a consumer for tests that only watch the Follower.
func discard(r *Reader) (int, error) { return new(collector).consume(r) }

func mustPoll(t *testing.T, fw *Follower, consume func(*Reader) (int, error)) int {
	t.Helper()
	n, err := fw.Poll(context.Background(), consume)
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	return n
}

// corruptBlock flips a byte in the middle of block idx (0-based) of a
// v2 trace, invalidating that block's CRC without touching a marker.
func corruptBlock(t *testing.T, raw []byte, idx int) []byte {
	t.Helper()
	needles := findMarkers(raw)
	if len(needles) <= idx+1 {
		t.Fatalf("fixture has %d blocks, need > %d", len(needles), idx+1)
	}
	bad := append([]byte(nil), raw...)
	bad[needles[idx]+(needles[idx+1]-needles[idx])/2] ^= 0x10
	return bad
}

// continuationBlocks encodes events as bare v2 sync blocks with the
// file header stripped — what a producer appends after a handoff, and
// what NewContinuationReader decodes.
func continuationBlocks(t *testing.T, n, syncEvery int) []byte {
	t.Helper()
	raw, _ := v2Fixture(t, n, syncEvery)
	return raw[findMarkers(raw)[0]:]
}

// TestFollowerDeliversAcrossPolls drip-feeds a trace — partial header,
// complete blocks, the final unsynced tail — and checks every event
// comes out exactly once, in order, with the committed offset tracking
// block boundaries.
func TestFollowerDeliversAcrossPolls(t *testing.T) {
	raw, events := v2Fixture(t, 60, 8)
	markers := findMarkers(raw)
	if len(markers) < 3 {
		t.Fatalf("fixture has %d markers, want >= 3", len(markers))
	}

	g := newGrowingTrace(t)
	fw, err := NewFollower(g.path, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()

	c := &collector{}
	collect := c.consume

	// Empty file, then a half-written header: nothing to deliver, no error.
	if n := mustPoll(t, fw, collect); n != 0 {
		t.Fatalf("poll on empty file delivered %d events", n)
	}
	g.append(raw[:3])
	if n := mustPoll(t, fw, collect); n != 0 {
		t.Fatalf("poll on partial header delivered %d events", n)
	}

	// Complete the header and the first block.
	g.append(raw[3:markers[1]])
	if n := mustPoll(t, fw, collect); n != 8 {
		t.Fatalf("first block: delivered %d events, want 8", n)
	}
	if fw.Offset() != int64(markers[1]) {
		t.Fatalf("Offset() = %d, want block boundary %d", fw.Offset(), markers[1])
	}

	// The rest in one go.
	g.append(raw[markers[1]:])
	if n := mustPoll(t, fw, collect); n != len(events)-8 {
		t.Fatalf("remainder: delivered %d events, want %d", n, len(events)-8)
	}
	if fw.Offset() != int64(len(raw)) {
		t.Fatalf("Offset() = %d, want %d", fw.Offset(), len(raw))
	}
	if n := mustPoll(t, fw, collect); n != 0 {
		t.Fatalf("idle poll delivered %d events", n)
	}
	if !reflect.DeepEqual(c.events, events) {
		t.Error("followed events differ from the written trace")
	}
	if len(c.reports) != 0 || c.skipped != 0 {
		t.Errorf("clean follow reported corruption: %d reports, %d bytes",
			len(c.reports), c.skipped)
	}
}

// TestFollowerRetriesPartialTailBlock stops the producer mid-block: the
// half block must not be delivered, charged as corruption, or committed
// — the next poll re-reads it once it is complete.
func TestFollowerRetriesPartialTailBlock(t *testing.T) {
	raw, events := v2Fixture(t, 24, 8)
	markers := findMarkers(raw)
	// Cut strictly inside the second block.
	cut := markers[1] + (markers[2]-markers[1])/2

	g := newGrowingTrace(t)
	g.append(raw[:cut])
	fw, err := NewFollower(g.path, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()

	c := &collector{}
	if n := mustPoll(t, fw, c.consume); n != 8 {
		t.Fatalf("poll over partial block delivered %d events, want 8 (first block only)", n)
	}
	if fw.Offset() != int64(markers[1]) {
		t.Fatalf("Offset() = %d, want %d: partial tail must not be committed", fw.Offset(), markers[1])
	}
	if len(c.reports) != 0 {
		t.Fatalf("partial tail charged as corruption: %v", c.reports)
	}

	g.append(raw[cut:])
	if n := mustPoll(t, fw, c.consume); n != len(events)-8 {
		t.Fatalf("completed tail delivered %d events, want %d", n, len(events)-8)
	}
	if !reflect.DeepEqual(c.events, events) {
		t.Error("events after tail retry differ from the written trace")
	}
}

// TestFollowerLenientChargesInteriorCorruptionOnce damages one interior
// block: exactly one report, exactly one block's events lost, and a
// later poll does not re-charge it.
func TestFollowerLenientChargesInteriorCorruptionOnce(t *testing.T) {
	raw, events := v2Fixture(t, 40, 8)
	bad := corruptBlock(t, raw, 1)

	g := newGrowingTrace(t)
	g.append(bad)
	fw, err := NewFollower(g.path, ReaderOptions{Lenient: true, MaxErrors: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()

	c := &collector{}
	if n := mustPoll(t, fw, c.consume); n != len(events)-8 {
		t.Fatalf("delivered %d events, want %d (one block lost)", n, len(events)-8)
	}
	reps := c.reports
	if len(reps) != 1 {
		t.Fatalf("%d corruption reports, want 1: %v", len(reps), reps)
	}
	// The reader detects the damage when the block's CRC fails, i.e. at
	// the end of the damaged block.
	markers := findMarkers(raw)
	if off := reps[0].Offset; off <= int64(markers[1]) || off > int64(markers[2]) {
		t.Errorf("report offset %d outside damaged block (%d,%d]", off, markers[1], markers[2])
	}
	if c.skipped == 0 {
		t.Error("BytesSkipped() = 0 after a skipped block")
	}
	if n := mustPoll(t, fw, c.consume); n != 0 || len(c.reports) != 1 {
		t.Fatalf("idle poll delivered %d events with %d reports; corruption re-charged", n, len(c.reports))
	}
}

// TestFollowerDefersTailCorruptionUntilStreamContinues damages the last
// block of the file. While nothing follows it, the damage is
// indistinguishable from a slow producer, so it must not be charged;
// once appended blocks prove the stream continues past it, it is
// charged exactly once.
func TestFollowerDefersTailCorruptionUntilStreamContinues(t *testing.T) {
	raw, events := v2Fixture(t, 24, 8)
	markers := findMarkers(raw)
	last := len(markers) - 1
	bad := append([]byte(nil), raw...)
	bad[markers[last]+8] ^= 0x10

	g := newGrowingTrace(t)
	g.append(bad)
	fw, err := NewFollower(g.path, ReaderOptions{Lenient: true, MaxErrors: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()

	c := &collector{}
	wantFirst := 8 * last // every block before the damaged one
	if n := mustPoll(t, fw, c.consume); n != wantFirst {
		t.Fatalf("delivered %d events, want %d", n, wantFirst)
	}
	if len(c.reports) != 0 || c.skipped != 0 {
		t.Fatalf("tail damage charged while it could still be a partial write: %v", c.reports)
	}
	if fw.Offset() != int64(markers[last]) {
		t.Fatalf("Offset() = %d, want %d", fw.Offset(), markers[last])
	}

	cont := continuationBlocks(t, 8, 8)
	g.append(cont)
	n2 := mustPoll(t, fw, c.consume)
	if n2 != 8 {
		t.Fatalf("continuation poll delivered %d events, want 8", n2)
	}
	if len(c.reports) != 1 {
		t.Fatalf("%d corruption reports after the stream continued, want exactly 1", len(c.reports))
	}
	// The report is at a file offset, inside the damaged last block.
	if off := c.reports[0].Offset; off <= int64(markers[last]) || off > int64(len(bad)) {
		t.Errorf("report offset %d outside the damaged block (%d,%d]", off, markers[last], len(bad))
	}
	if n := mustPoll(t, fw, c.consume); n != 0 || len(c.reports) != 1 {
		t.Fatalf("idle poll re-charged: n=%d reports=%d", n, len(c.reports))
	}
	// The damaged block's 8 events are lost, the continuation's 8 gained.
	if len(c.events) != len(events) {
		t.Errorf("delivered %d events in all, want %d", len(c.events), len(events))
	}
}

// TestFollowerStrictFailsOnCorruption: without Lenient the first
// damaged block poisons the Follower, and the error is sticky.
func TestFollowerStrictFailsOnCorruption(t *testing.T) {
	raw, _ := v2Fixture(t, 40, 8)
	g := newGrowingTrace(t)
	g.append(corruptBlock(t, raw, 1))
	fw, err := NewFollower(g.path, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()

	_, err = fw.Poll(context.Background(), discard)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Poll = %v, want ErrCorrupt", err)
	}
	if _, err2 := fw.Poll(context.Background(), discard); err2 != err {
		t.Fatalf("second Poll = %v, want the sticky first error", err2)
	}
}

// TestFollowerBudgetAccumulatesAcrossPolls: the error budget is
// cumulative over the Follower's lifetime, not per poll — two single
// corruptions in different polls exhaust MaxErrors=1 even though each
// poll's reader stays within it.
func TestFollowerBudgetAccumulatesAcrossPolls(t *testing.T) {
	raw, _ := v2Fixture(t, 40, 8)
	bad := corruptBlock(t, raw, 1)
	g := newGrowingTrace(t)
	g.append(bad)
	fw, err := NewFollower(g.path, ReaderOptions{Lenient: true, MaxErrors: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()

	if _, err := fw.Poll(context.Background(), discard); err != nil {
		t.Fatalf("first corruption within budget, got %v", err)
	}

	cont := continuationBlocks(t, 24, 8)
	cm := findMarkers(cont)
	badCont := append([]byte(nil), cont...)
	badCont[cm[0]+(cm[1]-cm[0])/2] ^= 0x10
	g.append(badCont)
	if _, err := fw.Poll(context.Background(), discard); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("second corruption must exhaust the cumulative budget, got %v", err)
	}
}

// TestFollowerRejectsV1: v1 traces carry no sync markers, so they
// cannot be resumed; following one fails up front.
func TestFollowerRejectsV1(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterOptions(&buf, WriterOptions{Version: FormatV1})
	if err != nil {
		t.Fatal(err)
	}
	ev := Event{Kind: KindDefCtx, Seq: 1, TS: 1, CtxID: 1, CtxName: "task"}
	if err := w.Write(&ev); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	g := newGrowingTrace(t)
	g.append(buf.Bytes())
	fw, err := NewFollower(g.path, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if _, err := fw.Poll(context.Background(), discard); err == nil || !strings.Contains(err.Error(), "cannot follow") {
		t.Fatalf("Poll on v1 trace = %v, want cannot-follow error", err)
	}
}

// TestFollowerFailsOnTruncation: a file shrinking below the committed
// offset means the producer restarted — the Follower cannot resume.
func TestFollowerFailsOnTruncation(t *testing.T) {
	raw, events := v2Fixture(t, 24, 8)
	g := newGrowingTrace(t)
	g.append(raw)
	fw, err := NewFollower(g.path, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if n := mustPoll(t, fw, discard); n != len(events) {
		t.Fatalf("delivered %d events, want %d", n, len(events))
	}
	if err := os.Truncate(g.path, int64(len(raw)/2)); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Poll(context.Background(), discard); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Poll after truncation = %v, want truncation error", err)
	}
}

// TestFollowerPropagatesCallbackError: an error of the consumer's own
// poisons the Follower with that exact error and commits nothing, even
// though the reader verified every block: a consumer that reads ahead
// (db.DB.Consume decodes up to a ring past the event it applies) may
// have read past the last event it applied.
func TestFollowerPropagatesCallbackError(t *testing.T) {
	raw, _ := v2Fixture(t, 24, 8)
	g := newGrowingTrace(t)
	g.append(raw)
	fw, err := NewFollower(g.path, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	sink := &memSink{}
	fw.SetSink(sink)
	boom := errors.New("downstream store rejected the event")
	if _, err := fw.Poll(context.Background(), func(r *Reader) (int, error) {
		n, _ := discard(r)
		return n, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Poll = %v, want the consumer error", err)
	}
	if fw.Offset() != 0 || len(sink.commits) != 0 {
		t.Fatalf("consumer error committed: offset %d, %d sink commits", fw.Offset(), len(sink.commits))
	}
	if _, err := fw.Poll(context.Background(), discard); !errors.Is(err, boom) {
		t.Fatalf("sticky Poll = %v, want the consumer error", err)
	}
}
