// Package resilience holds the failure-handling primitives lockdocd's
// serving and ingestion paths share: capped exponential backoff with
// jitter for transient I/O errors, a transient-error marker the fault
// injectors and retry loops agree on, and the admission-control
// limiters (token bucket, concurrency semaphore) the HTTP front door
// sheds load with.
//
// The split the package enforces everywhere: a *transient* failure
// (EINTR, a flaky NFS read, a store disk hiccup) is retried and
// never charged against the trace layer's corruption error budget; a
// *permanent* failure (bad bytes, CRC mismatch, exhausted attempts)
// propagates. PR 1's lenient reader owns the second kind; this package
// owns the first.
package resilience

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"syscall"
	"time"
)

// transientError wraps an error so IsTransient recognizes it.
type transientError struct{ err error }

func (e *transientError) Error() string   { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// MarkTransient wraps err so IsTransient reports true for it (and for
// anything wrapping the result). A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is worth retrying: anything in its
// chain implementing Transient() bool (the fault injectors and
// MarkTransient), plus the handful of syscall errnos that mean "the
// kernel was busy, not the data bad". Corruption (trace.ErrCorrupt),
// cancellation, and EOFs are never transient.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.EBUSY) ||
		errors.Is(err, syscall.ENOMEM)
}

// Backoff is a retry policy: Attempts total tries separated by
// exponentially growing delays, each delay capped at Max and smeared
// by Jitter. The zero value retries nothing (one attempt, no delay),
// so an unconfigured path behaves exactly as before this package
// existed.
type Backoff struct {
	// Attempts is the total number of tries including the first;
	// values <= 1 mean no retry.
	Attempts int
	// Base is the delay before the first retry; each subsequent delay
	// doubles (or grows by Multiplier). 0 retries immediately.
	Base time.Duration
	// Max caps every delay; 0 means no cap.
	Max time.Duration
	// Multiplier is the per-retry growth factor; values < 1 mean 2.
	Multiplier float64
	// Jitter in [0,1] randomizes each delay within ±Jitter/2 of its
	// nominal value, decorrelating retry storms.
	Jitter float64

	// Metrics, when non-nil, records retries, give-ups and backoff
	// delays.
	Metrics *Metrics

	// Sleep and Rand are test seams. Sleep defaults to a
	// context-aware sleep; Rand to math/rand's global Float64.
	Sleep func(ctx context.Context, d time.Duration) error
	Rand  func() float64
}

// DefaultBackoff is the policy the follower and store-commit paths use
// when a caller enables retries without tuning them: up to 4 tries in
// well under a second.
var DefaultBackoff = Backoff{Attempts: 4, Base: 10 * time.Millisecond, Max: 250 * time.Millisecond, Jitter: 0.5}

// Delay returns the nominal backoff before retry number n (0-based),
// jittered and capped.
func (b Backoff) Delay(n int) time.Duration {
	d := float64(b.Base)
	mult := b.Multiplier
	if mult < 1 {
		mult = 2
	}
	for i := 0; i < n; i++ {
		d *= mult
		if b.Max > 0 && d > float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Max > 0 && d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 && d > 0 {
		rnd := b.Rand
		if rnd == nil {
			rnd = rand.Float64
		}
		d *= 1 + b.Jitter*(rnd()-0.5)
	}
	return time.Duration(d)
}

func (b Backoff) sleep(ctx context.Context, d time.Duration) error {
	if b.Sleep != nil {
		return b.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs op, retrying transient failures per the policy. It returns
// nil as soon as one attempt succeeds, the last error once attempts
// are exhausted, the first non-transient error immediately, and
// ctx.Err() if the context dies while backing off.
func (b Backoff) Do(ctx context.Context, op func() error) error {
	attempts := b.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			d := b.Delay(try - 1)
			b.Metrics.retry(d)
			if serr := b.sleep(ctx, d); serr != nil {
				return serr
			}
		}
		if err = op(); err == nil {
			return nil
		}
		if !IsTransient(err) {
			return err
		}
	}
	b.Metrics.giveUp()
	return err
}

// RetryReader wraps an io.Reader so transient read errors are retried
// in place, invisibly to the consumer: the decode layer above only
// ever sees clean bytes, a permanent error, a context error, or EOF —
// so a flaky read is never misfiled as corruption.
type RetryReader struct {
	ctx context.Context
	r   io.Reader
	b   Backoff
}

// NewRetryReader wraps r with the given retry policy. ctx bounds the
// cumulative backoff sleeps, and once it is done every Read fails with
// ctx.Err().
func NewRetryReader(ctx context.Context, r io.Reader, b Backoff) *RetryReader {
	return &RetryReader{ctx: ctx, r: r, b: b}
}

// Read retries transient errors per the policy. A short read with a
// transient error is surfaced as the short read (n > 0), matching
// io.Reader's contract; the retry happens on the caller's next Read.
func (rr *RetryReader) Read(p []byte) (int, error) {
	if err := rr.ctx.Err(); err != nil {
		return 0, err
	}
	var n int
	err := rr.b.Do(rr.ctx, func() error {
		var rerr error
		n, rerr = rr.r.Read(p)
		if n > 0 {
			return nil // deliver the bytes; any error resurfaces next Read
		}
		return rerr
	})
	return n, err
}
