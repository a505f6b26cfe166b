package resilience

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"lockdoc/internal/obs"
)

// noSleep is the test policy seam: no real delays, delays recorded.
func noSleep(slept *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return nil
	}
}

func TestIsTransient(t *testing.T) {
	if IsTransient(nil) {
		t.Error("nil must not be transient")
	}
	if !IsTransient(MarkTransient(errors.New("disk hiccup"))) {
		t.Error("MarkTransient not recognized")
	}
	wrapped := errors.Join(errors.New("outer"), MarkTransient(errors.New("inner")))
	if !IsTransient(wrapped) {
		t.Error("wrapped transient not recognized")
	}
	if !IsTransient(syscall.EINTR) || !IsTransient(syscall.EAGAIN) {
		t.Error("retryable errnos not recognized")
	}
	for _, err := range []error{io.EOF, io.ErrUnexpectedEOF, errors.New("corrupt"), context.Canceled} {
		if IsTransient(err) {
			t.Errorf("%v must not be transient", err)
		}
	}
}

func TestBackoffDoRetriesTransient(t *testing.T) {
	var slept []time.Duration
	b := Backoff{Attempts: 4, Base: 10 * time.Millisecond, Max: 25 * time.Millisecond,
		Sleep: noSleep(&slept), Rand: func() float64 { return 0.5 }}
	calls := 0
	err := b.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return MarkTransient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want nil after 3", err, calls)
	}
	// Delays double from Base and cap at Max (Rand pinned to the
	// jitter midpoint, so values are exact).
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("delay[%d] = %v, want %v", i, slept[i], want[i])
		}
	}
}

func TestBackoffDoStopsOnPermanent(t *testing.T) {
	perm := errors.New("permanent")
	calls := 0
	b := Backoff{Attempts: 5, Sleep: noSleep(new([]time.Duration))}
	if err := b.Do(context.Background(), func() error { calls++; return perm }); !errors.Is(err, perm) {
		t.Fatalf("Do = %v, want permanent error", err)
	}
	if calls != 1 {
		t.Fatalf("permanent error retried %d times", calls)
	}
}

func TestBackoffDoExhaustsAttempts(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	calls := 0
	b := Backoff{Attempts: 3, Metrics: m, Sleep: noSleep(new([]time.Duration))}
	err := b.Do(context.Background(), func() error { calls++; return MarkTransient(errors.New("still flaky")) })
	if err == nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want error after 3", err, calls)
	}
	if !IsTransient(err) {
		t.Error("exhausted Do must return the last transient error")
	}
	if got := m.Retries.Value(); got != 2 {
		t.Errorf("retries counter = %d, want 2", got)
	}
	if got := m.GiveUps.Value(); got != 1 {
		t.Errorf("giveups counter = %d, want 1", got)
	}
}

func TestBackoffDoHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := Backoff{Attempts: 3, Base: time.Hour}
	err := b.Do(ctx, func() error { return MarkTransient(errors.New("flaky")) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
}

func TestBackoffDelayCapAndZeroValue(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 15 * time.Millisecond}
	if d := b.Delay(10); d != 15*time.Millisecond {
		t.Errorf("capped delay = %v, want 15ms", d)
	}
	var zero Backoff
	calls := 0
	if err := zero.Do(context.Background(), func() error { calls++; return MarkTransient(errors.New("x")) }); err == nil {
		t.Error("zero-value Backoff must not mask the error")
	}
	if calls != 1 {
		t.Errorf("zero-value Backoff made %d attempts, want 1", calls)
	}
}

// flakyReader fails its first failN reads with a transient error.
type flakyReader struct {
	r     io.Reader
	failN int
	calls int
}

func (f *flakyReader) Read(p []byte) (int, error) {
	f.calls++
	if f.calls <= f.failN {
		return 0, MarkTransient(errors.New("injected read fault"))
	}
	return f.r.Read(p)
}

func TestRetryReader(t *testing.T) {
	src := &flakyReader{r: strings.NewReader("payload"), failN: 2}
	rr := NewRetryReader(context.Background(), src,
		Backoff{Attempts: 4, Sleep: noSleep(new([]time.Duration))})
	got, err := io.ReadAll(rr)
	if err != nil || string(got) != "payload" {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
}

func TestRetryReaderGivesUp(t *testing.T) {
	src := &flakyReader{r: strings.NewReader("payload"), failN: 10}
	rr := NewRetryReader(context.Background(), src,
		Backoff{Attempts: 3, Sleep: noSleep(new([]time.Duration))})
	if _, err := io.ReadAll(rr); err == nil {
		t.Fatal("want error after exhausted retries")
	}
}

func TestRetryReaderPermanentError(t *testing.T) {
	perm := errors.New("bad disk")
	rr := NewRetryReader(context.Background(),
		io.MultiReader(strings.NewReader("ok"), &errReader{perm}), Backoff{Attempts: 5})
	got, err := io.ReadAll(rr)
	if string(got) != "ok" || !errors.Is(err, perm) {
		t.Fatalf("ReadAll = %q, %v; want \"ok\" + permanent error", got, err)
	}
}

// TestRetryReaderCancelled: once ctx is done, a read fails with
// ctx.Err() without touching the source, even with no retry policy.
func TestRetryReaderCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	src := &flakyReader{r: strings.NewReader("payload")}
	rr := NewRetryReader(ctx, src, Backoff{})
	p := make([]byte, 3)
	if n, err := rr.Read(p); n != 3 || err != nil {
		t.Fatalf("live read = %d, %v", n, err)
	}
	cancel()
	if n, err := rr.Read(p); n != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read = %d, %v; want 0, context.Canceled", n, err)
	}
	if src.calls != 1 {
		t.Errorf("source read %d times, want 1", src.calls)
	}
}

type errReader struct{ err error }

func (e *errReader) Read([]byte) (int, error) { return 0, e.err }

func TestTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	tb := NewTokenBucket(10, 2) // 10/s, burst 2
	tb.now = func() time.Time { return now }
	for i := 0; i < 2; i++ {
		if ok, _ := tb.Allow(); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, retry := tb.Allow()
	if ok {
		t.Fatal("over-burst request admitted")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("Retry-After = %v, want (0, 100ms]", retry)
	}
	now = now.Add(retry)
	if ok, _ := tb.Allow(); !ok {
		t.Fatal("request after Retry-After still rejected")
	}
	// nil bucket admits everything.
	var unlimited *TokenBucket
	if ok, _ := unlimited.Allow(); !ok {
		t.Fatal("nil bucket rejected")
	}
}

func TestSemaphore(t *testing.T) {
	s := NewSemaphore(2)
	if !s.TryAcquire() || !s.TryAcquire() {
		t.Fatal("in-budget acquires rejected")
	}
	if s.TryAcquire() {
		t.Fatal("over-budget acquire admitted")
	}
	if got := s.InUse(); got != 2 {
		t.Fatalf("InUse = %d, want 2", got)
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("acquire after release rejected")
	}
	var unlimited *Semaphore
	if !unlimited.TryAcquire() {
		t.Fatal("nil semaphore rejected")
	}
	unlimited.Release()
}

func TestSemaphoreConcurrent(t *testing.T) {
	s := NewSemaphore(4)
	var wg sync.WaitGroup
	var held sync.Map
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.TryAcquire() {
				if n := s.InUse(); n > 4 {
					held.Store(n, true)
				}
				s.Release()
			}
		}()
	}
	wg.Wait()
	held.Range(func(k, _ any) bool {
		t.Errorf("semaphore overshot to %v holders", k)
		return true
	})
}
