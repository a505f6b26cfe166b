package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"lockdoc/internal/obs"
)

// metricsTrace writes a small v2 trace with several sync blocks.
func metricsTrace(t *testing.T) []byte {
	t.Helper()
	raw, _ := v2Fixture(t, 16, 4)
	return raw
}

func TestReaderMetrics(t *testing.T) {
	data := metricsTrace(t)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	r, err := NewReaderOptions(bytes.NewReader(data), ReaderOptions{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	n := 0
	for {
		if err := r.Read(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if got := m.EventsDecoded.Value(); got != uint64(n) {
		t.Errorf("events_decoded = %d, want %d", got, n)
	}
	if m.BlocksDecoded.Value() == 0 {
		t.Error("blocks_decoded should be > 0")
	}
	if m.CRCFailures.Value() != 0 || m.Corruptions.Value() != 0 {
		t.Error("clean trace should record no corruption")
	}
}

func TestReaderMetricsCorruption(t *testing.T) {
	data := corruptBlock(t, metricsTrace(t), 1)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	r, err := NewReaderOptions(bytes.NewReader(data), ReaderOptions{Lenient: true, MaxErrors: 8, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	for {
		if err := r.Read(&ev); err != nil {
			break
		}
	}
	if m.CRCFailures.Value() == 0 {
		t.Error("crc_failures should be > 0 after flipping a block byte")
	}
	if m.Corruptions.Value() == 0 {
		t.Error("corruptions should be > 0")
	}
	if got, want := m.BytesSkipped.Value(), uint64(r.BytesSkipped()); got != want {
		t.Errorf("bytes_skipped metric = %d, reader reports %d", got, want)
	}
}

// TestFollowerPollCancellation cancels from inside the consumer. The
// reader still decodes what it has buffered, then fails its next read
// from the file, so of a region larger than its 64 KB buffer only part
// is delivered. The poll returns ctx.Err() without poisoning the
// follower, committing the offset or charging the lenient budget.
func TestFollowerPollCancellation(t *testing.T) {
	raw, events := v2Fixture(t, 20000, 8)
	if len(raw) <= 1<<16 {
		t.Fatalf("fixture is %d bytes, want more than one 64 KB read", len(raw))
	}
	g := newGrowingTrace(t)
	g.append(raw)
	m := NewMetrics(obs.NewRegistry())
	fw, err := NewFollower(g.path, ReaderOptions{Lenient: true, MaxErrors: 4, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := &collector{}
	n, err := fw.Poll(ctx, func(r *Reader) (int, error) {
		cancel()
		return c.consume(r)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled poll error = %v, want context.Canceled", err)
	}
	if n == 0 || n >= len(events) {
		t.Errorf("cancelled poll delivered %d of %d events, want part of them", n, len(events))
	}
	if fw.Offset() != 0 {
		t.Errorf("cancelled poll committed offset %d, want 0", fw.Offset())
	}
	if m.Corruptions.Value() != 0 || len(c.reports) != 0 {
		t.Errorf("cancelled poll charged %d corruption(s)", m.Corruptions.Value())
	}

	// A fresh context resumes from the uncommitted boundary and decodes
	// everything, including the events delivered before cancellation.
	c = &collector{}
	if got := mustPoll(t, fw, c.consume); got != len(events) || !reflect.DeepEqual(c.events, events) {
		t.Errorf("resumed poll delivered %d events, want all %d", got, len(events))
	}

	// An already-cancelled context aborts before any I/O.
	g.append(raw[:10])
	if _, err := fw.Poll(ctx, func(*Reader) (int, error) { t.Error("consumer ran"); return 0, nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled poll error = %v, want context.Canceled", err)
	}
}

func TestFollowerPollMetrics(t *testing.T) {
	g := newGrowingTrace(t)
	g.append(metricsTrace(t))
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	fw, err := NewFollower(g.path, ReaderOptions{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	c := &collector{}
	mustPoll(t, fw, c.consume)
	mustPoll(t, fw, c.consume) // empty poll still counts
	if got := m.Polls.Value(); got != 2 {
		t.Errorf("polls = %d, want 2", got)
	}
	if got := m.PollEvents.Sum(); got != float64(len(c.events)) {
		t.Errorf("poll_events sum = %g, want %d", got, len(c.events))
	}
	if m.PollSeconds.Count() != 2 {
		t.Errorf("poll_seconds count = %d, want 2", m.PollSeconds.Count())
	}
}
