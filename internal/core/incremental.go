package core

import (
	"context"

	"lockdoc/internal/db"
)

// DeltaDeriver memoizes per-group derivation results across successive
// sealed snapshots of one appendable store (db.DB.Seal), so appending
// events to a long trace re-mines only the observation groups the new
// events touched.
//
// Soundness rests on two properties. First, Derive is a pure function
// of a group's merged observations and the options: support counts are
// additive, so a group touched by an append carries fully merged counts
// in the new snapshot and is re-mined from those counts, never from raw
// events. Second, copy-on-write sealing guarantees two snapshots of the
// same store share an *ObsGroup pointer exactly when the group's
// contents are identical, so a cache keyed by group pointer returns
// byte-identical results for clean groups. Together they make
// DeriveAll's output indistinguishable from a from-scratch batch
// derivation of the same snapshot — the differential oracle in the root
// package (TestOracle, FuzzOracle) pins this.
//
// A DeltaDeriver is not safe for concurrent use; its one user, the
// StreamDeriver, runs one pass at a time.
type DeltaDeriver struct {
	opt   Options
	cache map[*db.ObsGroup]Result
}

// DeltaStats reports what one DeltaDeriver.DeriveAll call did.
type DeltaStats struct {
	Groups  int // observation groups in the snapshot
	Reused  int // clean groups answered from the per-group cache
	Remined int // dirty or new groups that were re-mined
}

// NewDeltaDeriver returns a deriver for the given options with an empty
// cache: the first DeriveAll re-mines everything, later calls only the
// delta.
func NewDeltaDeriver(opt Options) *DeltaDeriver {
	return &DeltaDeriver{opt: opt, cache: make(map[*db.ObsGroup]Result)}
}

// Options returns the derivation options the deriver was built with.
func (dd *DeltaDeriver) Options() Options { return dd.opt }

// DeriveAll derives locking rules for every observation group of the
// sealed snapshot d, element-for-element identical to
// DeriveAll(ctx, d, opt) but reusing cached results for groups
// untouched since the previous snapshot this deriver saw. The dirty
// groups form the pass's work list: the workers claim them from one
// cursor and re-mine them exactly as the batch path mines every group.
//
// d must be a sealed view (db.DB.Seal): only sealing establishes the
// pointer-identity-means-unchanged invariant the cache relies on, so
// passing a live mutable store could silently return stale rules.
//
// Cancellation is checked at every claim that finds a dirty group,
// like the batch path, so a pass with no dirty group never reads as
// cancelled. When ctx is cancelled, DeriveAll returns
// (nil, stats, ctx.Err()) WITHOUT touching the per-group cache, so the
// deriver still holds the previous snapshot's results and a later call
// re-mines only what that snapshot had not covered.
func (dd *DeltaDeriver) DeriveAll(ctx context.Context, d *db.DB) ([]Result, DeltaStats, error) {
	if !d.Sealed() {
		panic("core: DeltaDeriver.DeriveAll requires a sealed snapshot (db.DB.Seal)")
	}
	groups := d.Groups()
	out := make([]Result, len(groups))
	stats := DeltaStats{Groups: len(groups)}
	dirty := make([]int32, 0, len(groups))
	for i, g := range groups {
		if res, ok := dd.cache[g]; ok {
			out[i] = res
			stats.Reused++
		} else {
			dirty = append(dirty, int32(i))
		}
	}
	stats.Remined = len(dirty)

	if err := mineAll(ctx, d, groups, dirty, out, dd.opt); err != nil {
		return nil, stats, err
	}
	dd.opt.Metrics.delta(stats)

	// Rebuild the cache from this snapshot only: pointers from
	// superseded generations must not pin dead group copies in memory.
	fresh := make(map[*db.ObsGroup]Result, len(groups))
	for i, g := range groups {
		fresh[g] = out[i]
	}
	dd.cache = fresh
	return out, stats, nil
}
