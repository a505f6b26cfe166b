package db

import (
	"time"

	"lockdoc/internal/trace"
)

// Seal returns an immutable snapshot of the store that is
// byte-for-byte equivalent to what a batch Import of exactly the
// events consumed so far would have produced — including transactions
// still open in some execution context, which batch import's final
// Flush would finalize. The live store itself is left untouched: open
// transactions stay open, so ingestion can keep appending, and the
// next Seal reflects the longer prefix.
//
// The snapshot is cheap: definition tables share their values with the
// live store (they are append-only), observation groups are shared by
// pointer and protected by copy-on-write (the live store clones a
// group before merging into it once it has been sealed). As a
// consequence, two consecutive snapshots share a group pointer exactly
// when the group's merged observations are identical in both — the
// invariant core.DeltaDeriver's per-group result reuse relies on.
//
// Seal advances the store's generation; groups merged after this call
// carry the new generation stamp.
func (db *DB) Seal() *DB {
	start := time.Now()
	view := &DB{
		Types:  copyMap(db.Types),
		Locks:  copyMap(db.Locks),
		Funcs:  copyMap(db.Funcs),
		Ctxs:   copyMap(db.Ctxs),
		Stacks: copyMap(db.Stacks),
		Allocs: copyMap(db.Allocs),

		// The key slice is capped so either side's next append
		// reallocates.
		keys:    db.keys[:len(db.keys):len(db.keys)],
		keyIDs:  copyMap(db.keyIDs),
		groups:  make(map[GroupKey]*ObsGroup, len(db.groups)),
		subbed:  db.subbed,
		blFuncs: db.blFuncs,
		blMembs: db.blMembs,
		noWoR:   db.noWoR,
		lenient: db.lenient,
		gen:     db.gen,
		sealed:  true,

		RawAccesses:      db.RawAccesses,
		FilteredAccesses: db.FilteredAccesses,
		Transactions:     db.Transactions,
		UnresolvedAddrs:  db.UnresolvedAddrs,
		CrossCtxRelease:  db.CrossCtxRelease,

		UnknownKindEvents: db.UnknownKindEvents,
		DroppedAllocs:     db.DroppedAllocs,
		DroppedFrees:      db.DroppedFrees,
		UnknownLockOps:    db.UnknownLockOps,
		OpenAtEOF:         db.OpenAtEOF,
		Corruptions:       append([]trace.CorruptionReport(nil), db.Corruptions...),
		BytesSkipped:      db.BytesSkipped,
	}
	for gk, g := range db.groups {
		g.shared = true
		view.groups[gk] = g
	}
	// Finalize the open transactions on the view only, in exactly the
	// order Flush would use, so the view equals batch-import output.
	// commitObs interns any new lock keys into the view's private key
	// tables and copy-on-write clones the shared groups it touches, so
	// the live store sees none of it; non-destructive mode leaves the
	// pending observations for the live store's own eventual flush.
	for _, id := range sortedCtxIDs(db.ctxState) {
		cs := db.ctxState[id]
		if len(cs.pending) == 0 {
			continue
		}
		view.OpenAtEOF++
		view.Transactions++
		var order []pendKey
		for _, pk := range sortedPendKeys(cs.pending, &order) {
			view.commitObs(cs.held, cs.pending[pk], false)
		}
	}
	view.metrics = db.metrics
	db.gen++
	db.metrics.seal(start, len(view.groups))
	return view
}

// Sealed reports whether the store is a read-only view from Seal.
func (db *DB) Sealed() bool { return db.sealed }

// Generation returns the snapshot generation: how many times the store
// has been sealed (a sealed view reports the generation it captured).
func (db *DB) Generation() uint64 { return db.gen }

// DirtyGroupsSince counts the observation groups of db whose merged
// contents differ from (or do not exist in) the older sealed view old.
// Copy-on-write sealing makes pointer sharing equivalent to "content
// unchanged", so this is a single map sweep.
func (db *DB) DirtyGroupsSince(old *DB) int {
	n := 0
	for gk, g := range db.groups {
		if old == nil || old.groups[gk] != g {
			n++
		}
	}
	db.metrics.dirty(n)
	return n
}

func copyMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
