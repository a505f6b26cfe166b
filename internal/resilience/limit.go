package resilience

import (
	"sync"
	"time"
)

// TokenBucket is the admission-control rate limiter: a bucket of
// `burst` tokens refilled at `rate` tokens/second. Allow spends one
// token when available; otherwise it reports how long until the next
// token, which the HTTP layer surfaces as Retry-After. A nil
// *TokenBucket admits everything, so an unconfigured server pays one
// nil check per request.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time // test seam
}

// NewTokenBucket builds a bucket starting full. rate <= 0 returns nil
// (unlimited).
func NewTokenBucket(rate float64, burst int) *TokenBucket {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), now: time.Now}
}

// Allow spends one token if available. When it cannot, it returns
// false and the duration after which a retry will find a token.
func (tb *TokenBucket) Allow() (bool, time.Duration) {
	if tb == nil {
		return true, 0
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.now()
	if !tb.last.IsZero() {
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return true, 0
	}
	need := (1 - tb.tokens) / tb.rate
	return false, time.Duration(need * float64(time.Second))
}

// Semaphore bounds the number of concurrently admitted requests. A
// nil *Semaphore admits everything.
type Semaphore struct {
	ch chan struct{}
}

// NewSemaphore builds a semaphore admitting up to n holders; n <= 0
// returns nil (unlimited).
func NewSemaphore(n int) *Semaphore {
	if n <= 0 {
		return nil
	}
	return &Semaphore{ch: make(chan struct{}, n)}
}

// TryAcquire claims a slot without blocking; the caller must Release
// iff it returns true.
func (s *Semaphore) TryAcquire() bool {
	if s == nil {
		return true
	}
	select {
	case s.ch <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot claimed by TryAcquire.
func (s *Semaphore) Release() {
	if s == nil {
		return
	}
	<-s.ch
}

// InUse reports the currently held slots.
func (s *Semaphore) InUse() int {
	if s == nil {
		return 0
	}
	return len(s.ch)
}
