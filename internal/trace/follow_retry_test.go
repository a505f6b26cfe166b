package trace

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"lockdoc/internal/faultinject"
	"lockdoc/internal/obs"
	"lockdoc/internal/resilience"
)

// fastRetry is the test retry policy: real backoff semantics, no real
// sleeping.
func fastRetry() resilience.Backoff {
	return resilience.Backoff{
		Attempts: 4,
		Base:     time.Millisecond,
		Sleep:    func(context.Context, time.Duration) error { return nil },
	}
}

// openFlaky writes raw to disk and opens it behind a FlakyFile that
// fails the first failReads ReadAt calls (and failStats Stat calls)
// with a transient fault. The Follower is lenient and records its
// reader's instruments, so charged can read what its readers charged.
func openFlaky(t *testing.T, raw []byte, failReads, failStats int) (*Follower, *faultinject.FlakyFile) {
	t.Helper()
	path := t.TempDir() + "/flaky.lkdc"
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	flaky := &faultinject.FlakyFile{Inner: f, FailReads: failReads, FailStats: failStats}
	fw := NewFollowerFile(flaky, ReaderOptions{Lenient: true, MaxErrors: 5, Metrics: NewMetrics(obs.NewRegistry())})
	fw.SetRetry(fastRetry())
	return fw, flaky
}

// charged returns the corruptions fw's readers charged, confirmed or
// not (lockdoc_trace_corruptions_total).
func charged(fw *Follower) uint64 { return fw.opts.Metrics.Corruptions.Value() }

// TestFollowerRetriesTransientReads is the transient-vs-corruption
// accounting pin: a fault-injected read that fails twice then succeeds
// must deliver every event and leave the cumulative corruption error
// budget untouched — a flaky disk is not a damaged trace.
func TestFollowerRetriesTransientReads(t *testing.T) {
	raw, events := v2Fixture(t, 40, 8)
	fw, flaky := openFlaky(t, raw, 2, 0)

	c := &collector{}
	n, err := fw.Poll(context.Background(), c.consume)
	if err != nil {
		t.Fatalf("Poll with transient faults: %v", err)
	}
	if n != len(events) {
		t.Fatalf("delivered %d events, want %d", n, len(events))
	}
	if flaky.ReadCalls() < 3 {
		t.Fatalf("fault never fired: %d read calls", flaky.ReadCalls())
	}
	// The budget accounting: zero corruption reports, zero skipped
	// bytes, and the Follower not poisoned.
	if len(c.reports) != 0 || charged(fw) != 0 {
		t.Errorf("transient reads charged %d corruption reports: %v", charged(fw), c.reports)
	}
	if c.skipped != 0 {
		t.Errorf("transient reads charged %d skipped bytes", c.skipped)
	}
	if _, err := fw.Poll(context.Background(), c.consume); err != nil {
		t.Errorf("Follower poisoned by recovered transient faults: %v", err)
	}
}

// TestFollowerRetriesTransientStat covers the other I/O surface: a
// Stat that fails twice then succeeds.
func TestFollowerRetriesTransientStat(t *testing.T) {
	raw, events := v2Fixture(t, 20, 8)
	fw, _ := openFlaky(t, raw, 0, 2)
	n, err := fw.Poll(context.Background(), discard)
	if err != nil {
		t.Fatalf("Poll with transient Stat faults: %v", err)
	}
	if n != len(events) {
		t.Fatalf("delivered %d events, want %d", n, len(events))
	}
}

// TestFollowerTransientExhaustionDoesNotPoison: even when the fault
// outlasts every retry, the error is surfaced but the Follower stays
// usable, commits nothing, and charges nothing — the next Poll (disk
// recovered) delivers the full trace.
func TestFollowerTransientExhaustionDoesNotPoison(t *testing.T) {
	raw, events := v2Fixture(t, 40, 8)
	fw, _ := openFlaky(t, raw, 50, 0) // more faults than 4 attempts absorb

	c := &collector{}
	if _, err := fw.Poll(context.Background(), c.consume); err == nil {
		t.Fatal("Poll must surface the exhausted transient error")
	}
	if off := fw.Offset(); off != 0 {
		t.Errorf("exhausted transient poll committed offset %d, want 0", off)
	}
	if len(c.reports) != 0 || c.skipped != 0 || charged(fw) != 0 {
		t.Errorf("exhausted transient faults charged the corruption budget: %d reports, %d bytes",
			charged(fw), c.skipped)
	}

	// Disk recovered (the 50-fault budget ate some calls; drain the
	// rest by polling until clean).
	deadline := time.Now().Add(5 * time.Second)
	for {
		c = &collector{}
		n, err := fw.Poll(context.Background(), c.consume)
		if err == nil && n == len(events) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Follower never recovered: n=%d err=%v", n, err)
		}
	}
	if len(c.reports) != 0 || charged(fw) != 0 {
		t.Errorf("recovered polls charged %d corruption reports", charged(fw))
	}
}

// TestFollowerRetryBudgetVsRealCorruption mixes the two failure kinds:
// one genuinely damaged block plus transient read faults. Exactly the
// damaged block — and nothing else — lands in the error budget.
func TestFollowerRetryBudgetVsRealCorruption(t *testing.T) {
	raw, events := v2Fixture(t, 60, 8)
	bad := corruptBlock(t, raw, 2)
	fw, flaky := openFlaky(t, bad, 2, 0)

	c := &collector{}
	if _, err := fw.Poll(context.Background(), c.consume); err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if flaky.ReadCalls() < 3 {
		t.Fatalf("fault never fired: %d read calls", flaky.ReadCalls())
	}
	if len(c.reports) != 1 || charged(fw) != 1 {
		t.Fatalf("error budget charged %d reports, want exactly 1 (the damaged block): %v",
			charged(fw), c.reports)
	}
	if len(c.events) >= len(events) || len(c.events) == 0 {
		t.Errorf("delivered %d events, want a non-empty subset of %d (one block dropped)", len(c.events), len(events))
	}
}

// flakyFrom fails every read at or past file offset from with a
// transient fault.
type flakyFrom struct {
	File
	from int64
}

func (f flakyFrom) ReadAt(p []byte, off int64) (int, error) {
	if off >= f.from {
		return 0, resilience.MarkTransient(errors.New("injected read fault"))
	}
	return f.File.ReadAt(p, off)
}

// TestFollowerCancelledBackoffChargesNothing cuts a retry backoff
// short by cancelling the poll, once at the header and once in the
// middle of the blocks (past the reader's first 64 KB). A lenient
// reader must pass the cancellation on, not charge it as corruption:
// the poll returns ctx.Err(), commits nothing, charges nothing, and a
// later poll over a healthy file delivers every event.
func TestFollowerCancelledBackoffChargesNothing(t *testing.T) {
	raw, events := v2Fixture(t, 20000, 8)
	if len(raw) <= 1<<16 {
		t.Fatalf("fixture is %d bytes, want more than one 64 KB read", len(raw))
	}
	for _, from := range []int64{0, 1 << 16} {
		fw, _ := openFlaky(t, raw, 0, 0)
		healthy := fw.f
		fw.f = flakyFrom{File: healthy, from: from}
		ctx, cancel := context.WithCancel(context.Background())
		fw.SetRetry(resilience.Backoff{Attempts: 4, Sleep: func(ctx context.Context, _ time.Duration) error {
			cancel()
			return ctx.Err()
		}})
		c := &collector{}
		if _, err := fw.Poll(ctx, c.consume); !errors.Is(err, context.Canceled) {
			t.Fatalf("fault at %d: Poll = %v, want context.Canceled", from, err)
		}
		if fw.Offset() != 0 || charged(fw) != 0 || len(c.reports) != 0 {
			t.Fatalf("fault at %d: cancelled backoff committed offset %d and charged %d corruption(s)",
				from, fw.Offset(), charged(fw))
		}

		fw.f = healthy
		c = &collector{}
		if n := mustPoll(t, fw, c.consume); n != len(events) || charged(fw) != 0 || len(c.reports) != 0 {
			t.Fatalf("fault at %d: later poll delivered %d of %d events, charged %d", from, n, len(events), charged(fw))
		}
	}
}
