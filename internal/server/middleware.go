package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"lockdoc/internal/db"
	"lockdoc/internal/segstore"
)

// shed refuses a request at the admission layer: envelope error,
// Retry-After, and one count on the per-reason shed counter.
func (s *Server) shed(w http.ResponseWriter, reason string, status int,
	retryAfter time.Duration, format string, args ...any) {
	s.m.shedFor(reason).Inc()
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeErr(w, status, format, args...)
}

// recoverPanic converts a handler panic into a 500 error envelope and
// a lockdocd_panics_total tick, keeping the process serving. It runs
// outside the route dispatch so a panic anywhere in a handler — or in
// the admission path — cannot take the daemon down with it.
// http.ErrAbortHandler keeps its contract (the connection is dropped).
// A panic raised while decoding an ingested trace arrives as a
// *db.DecodePanic; the log shows the decoder's stack where it
// panicked, and the response only the original value.
func (s *Server) recoverPanic(w *statusWriter, r *http.Request) {
	rec := recover()
	if rec == nil {
		return
	}
	if rec == http.ErrAbortHandler {
		panic(rec)
	}
	s.m.panics.Inc()
	stack := debug.Stack()
	if p, ok := rec.(*db.DecodePanic); ok {
		rec, stack = p.Value, p.Stack
	}
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "lockdocd: panic serving %s %s: %v\n%s",
			r.Method, r.URL.Path, rec, stack)
	}
	if !w.started {
		writeErr(w, http.StatusInternalServerError, "internal error: %v", rec)
	} else {
		// The response already started streaming; the status is sent.
		// All that is left is to not crash.
		w.code = http.StatusInternalServerError
	}
}

// BeginShutdown moves the server into drain mode: new /v1 requests are
// refused with 503 and the contexts of in-flight requests are
// cancelled, so long derivations abort at their next group boundary
// and http.Server.Shutdown completes within the drain timeout instead
// of racing it. Idempotent.
func (s *Server) BeginShutdown() { s.stop() }

// durableWrite runs one trace-chain commit with transient-failure
// retries and maintains the degraded gauge: 1 after a commit that
// failed even with retries, back to 0 on the next success. Callers
// fail the ingest on error — the client learns its bytes are not
// durable, and the on-disk chain stays a valid prefix of what was
// served. Bytes the store cannot segment at all (segstore.ErrUnstorable)
// are the client's problem, not the disk's: they pass through
// unwrapped and leave the gauge alone.
func (s *Server) durableWrite(op func() error) error {
	err := s.storeRetry.Do(s.stopCtx, op)
	if errors.Is(err, segstore.ErrUnstorable) {
		return err
	}
	s.storeDegraded.Store(err != nil)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStoreWrite, err)
	}
	return nil
}
