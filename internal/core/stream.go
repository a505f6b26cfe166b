package core

import (
	"context"

	"lockdoc/internal/db"
	"lockdoc/internal/trace"
)

// StreamDeriver is a resumable deriver over a live store: Consume
// feeds a reader's events into the store, and Derive seals it once and
// runs one DeltaDeriver pass over the snapshot. The deriver keeps the
// DeltaDeriver's per-group cache across windows, so each Derive
// re-mines only the groups the events since the previous Derive
// touched.
//
// The returned results are byte-identical to a batch
// DeriveAll(sealed view) of the same events, by the DeltaDeriver
// soundness argument (see incremental.go). The root package's
// differential oracle pins this across randomized chunkings, and
// stream_test.go across the whole options matrix.
//
// A StreamDeriver is not safe for concurrent use: one goroutine feeds
// events and calls Derive. After Derive the deriver is reusable — the
// next Consume opens a new window against the same live store, which
// is how lockdocd append mode and the follow loop (whose Follower
// hands each poll's reader to Consume) stream across many windows
// while keeping one warm cache.
type StreamDeriver struct {
	live   *db.DB
	dd     *DeltaDeriver
	opt    Options
	events int // events fed into the live store this window
}

// NewStreamDeriver wraps the given live store. The store must be
// unsealed and should be mutated only through the deriver.
func NewStreamDeriver(live *db.DB, opt Options) *StreamDeriver {
	return &StreamDeriver{live: live, dd: NewDeltaDeriver(opt), opt: opt}
}

// Live returns the wrapped live store (for corruption counters and
// import statistics; mutate it only through the deriver).
func (sd *StreamDeriver) Live() *db.DB { return sd.live }

// Options returns the derivation options the deriver mines with.
func (sd *StreamDeriver) Options() Options { return sd.opt }

// Consume streams every remaining event of r into the live store, with
// the exact semantics of db.DB.Consume (including corruption-counter
// folding).
func (sd *StreamDeriver) Consume(r *trace.Reader) (int, error) {
	n, err := sd.live.Consume(r)
	sd.events += n
	return n, err
}

// StreamStats reports what one streaming window (the events between
// two Derive calls) did.
type StreamStats struct {
	Events int        // events fed into the live store this window
	Delta  DeltaStats // the window's pass: Reused counts cached groups

	// Deprecated: the deriver no longer mines speculatively; always 0.
	SpecPasses int
}

// Derive closes the current window: it seals the live store and runs
// the derivation pass over the snapshot. The results are
// byte-identical to DeriveAll(ctx, view, opt) on the returned view. On
// error (cancellation mid-pass) the per-group cache is untouched, the
// window statistics are still returned, and the deriver remains usable
// — a later Derive re-runs the pass.
func (sd *StreamDeriver) Derive(ctx context.Context) (*db.DB, []Result, StreamStats, error) {
	view := sd.live.Seal()
	results, dstats, err := sd.dd.DeriveAll(ctx, view)
	stats := StreamStats{Events: sd.events, Delta: dstats}
	if err != nil {
		return nil, nil, stats, err
	}
	sd.events = 0
	return view, results, stats, nil
}

// Close does nothing.
//
// Deprecated: the deriver holds no background resources.
func (sd *StreamDeriver) Close() {}
