// Per-namespace serving state. Every tenant owns the full single-
// server machinery of the pre-namespace design: an appendable live
// store wrapped in a StreamDeriver, a published immutable
// Snapshot, an options-keyed derivation cache, its own generation and
// epoch counters, and (when configured) its own segment-store
// subdirectory. The Server holds these in the sharded
// registry and owns only what is genuinely global: admission control,
// metrics, the memory budget, and the eviction policy.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lockdoc/internal/analysis"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/resilience"
	"lockdoc/internal/segstore"
	"lockdoc/internal/trace"
)

type namespace struct {
	name string
	srv  *Server

	// snap is the published snapshot; nil before the first load and
	// again after an eviction. Request handlers read it without locks.
	snap  atomic.Pointer[Snapshot]
	cache *ruleCache

	// limiter is the per-namespace token bucket (nil = unlimited).
	// It sits behind the global limiter: a noisy tenant exhausts its
	// own bucket without draining everyone else's.
	limiter *resilience.TokenBucket

	// refs counts in-flight HTTP requests resolved to this namespace;
	// the evictor skips any namespace with live references. lastTouch
	// is a logical clock stamp (Server.touchClock) for LRU ordering.
	refs      atomic.Int64
	lastTouch atomic.Int64

	// mu serializes every mutation of the ingestion state — loads,
	// appends, store reopen, eviction — exactly like the old server-
	// wide loadMu, but per tenant: unrelated namespaces ingest
	// concurrently.
	mu    sync.Mutex
	live  *db.DB
	sd    *core.StreamDeriver
	gen   uint64
	epoch uint64

	// resident is the raw trace bytes (file headers excluded) charged
	// to the memory budget for this namespace. Written under mu (via
	// settleResident), read lock-free by the per-namespace gauge and the
	// evictor.
	resident atomic.Int64

	// store is the durability backend (nil = in-memory only). Its
	// trace chain is the commit point of every ingest; its state
	// segment is a cache of that chain. storeOwned marks a store the
	// server opened itself under Config.StoreRoot — deletion then
	// removes its directory; a store handed in via Config.Store belongs
	// to the caller.
	store      *segstore.Store
	storeOwned bool

	nm *nsMetrics
}

// touch stamps the namespace as most-recently-used.
func (ns *namespace) touch() {
	ns.lastTouch.Store(ns.srv.touchClock.Add(1))
}

// snapshot returns the published snapshot or nil.
func (ns *namespace) snapshot() *Snapshot { return ns.snap.Load() }

// evictedState reports whether the namespace currently holds no
// in-memory state but has a store to re-open from.
func (ns *namespace) evictedState() bool {
	return ns.snap.Load() == nil && ns.store != nil
}

// evictableLocked reports whether eviction may drop the namespace now:
// it holds a snapshot, serves no request, and has a store to re-open
// from (without one, eviction would lose the tenant's data). Caller
// holds ns.mu.
func (ns *namespace) evictableLocked() bool {
	return ns.snap.Load() != nil && ns.refs.Load() == 0 && ns.store != nil
}

// readForStore buffers r when the namespace has a store: the commit
// needs the raw bytes as well as the decoder.
func (ns *namespace) readForStore(r io.Reader, source string) (io.Reader, []byte, error) {
	if ns.store == nil {
		return r, nil, nil
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("server: reading %s: %w", source, err)
	}
	return bytes.NewReader(raw), raw, nil
}

// loadTrace ingests a full trace into a fresh live store and publishes
// it, replacing whatever the namespace held. See Server.LoadTrace for
// the durability ordering contract.
func (ns *namespace) loadTrace(r io.Reader, source string) (*Snapshot, error) {
	s := ns.srv
	r, raw, err := ns.readForStore(r, source)
	if err != nil {
		return nil, err
	}
	counted := &countingReader{r: r}
	tr, err := trace.NewReaderOptions(counted, s.cfg.Ingest)
	if err != nil {
		return nil, fmt.Errorf("server: reading %s: %w", source, err)
	}

	ns.mu.Lock()
	defer ns.mu.Unlock()
	live := db.New(s.importConfig())
	sd := core.NewStreamDeriver(live, s.streamOptions())
	if _, err := sd.Consume(tr); err != nil {
		return nil, fmt.Errorf("server: importing %s: %w", source, err)
	}
	view, results, _, err := sd.Derive(s.stopCtx)
	if err != nil {
		return nil, fmt.Errorf("server: deriving %s: %w", source, err)
	}
	// A lenient reader turns arbitrary garbage into an empty trace (it
	// resynchronizes right past the end). Publishing an all-empty
	// snapshot would silently blank the service, so insist on at least
	// one decoded access or observation group.
	if view.RawAccesses == 0 && len(view.Groups()) == 0 {
		return nil, fmt.Errorf("server: %s contains no decodable observations%s",
			source, degradedSuffix(view))
	}
	checks, err := analysis.CheckAll(view, s.rules)
	if err != nil {
		return nil, fmt.Errorf("server: checking %s: %w", source, err)
	}
	if ns.store != nil {
		// The trace is proven ingestible; commit it as the new trace
		// chain before it becomes visible. ResetTrace swaps the manifest
		// atomically, so a rejected load never costs the previous chain.
		if err := s.durableWrite(func() error { return ns.store.ResetTrace(raw) }); err != nil {
			return nil, fmt.Errorf("server: %s: %w", source, err)
		}
		ns.compact(view)
	}

	ns.gen++
	ns.epoch++
	snap := &Snapshot{
		Gen:      ns.gen,
		Epoch:    ns.epoch,
		DB:       view,
		Source:   source,
		LoadedAt: time.Now().UTC(),
		Checks:   checks,
	}
	ns.dropLiveLocked()
	ns.live = live
	ns.sd = sd
	ns.snap.Store(snap)
	ns.cache.reset()
	// The load's pass already derived the default-options rules;
	// seed the query cache so the first /v1/rules request is a hit.
	ns.cache.adopt(sd.Options().Key(), results, snap.Gen, snap.Epoch)
	s.settleResident(ns, counted.n-tr.HeaderLen())
	s.m.reloads.Inc()
	return snap, nil
}

// appendTrace merges a continuation into the live store. See
// Server.AppendTrace for the contract.
func (ns *namespace) appendTrace(r io.Reader, source string) (*Snapshot, AppendStats, error) {
	s := ns.srv
	var stats AppendStats
	r, raw, err := ns.readForStore(r, source)
	if err != nil {
		return nil, stats, err
	}
	counted := &countingReader{r: r}
	br := bufio.NewReaderSize(counted, 1<<16)
	head, _ := br.Peek(4)
	var tr *trace.Reader
	if trace.HasHeader(head) {
		tr, err = trace.NewReaderOptions(br, s.cfg.Ingest)
		if err != nil {
			return nil, stats, fmt.Errorf("server: reading %s: %w", source, err)
		}
		if tr.Version() != trace.FormatV2 {
			return nil, stats, fmt.Errorf("server: cannot append a v%d trace: only v2 sync blocks support resumption", tr.Version())
		}
	} else {
		tr = trace.NewContinuationReader(br, s.cfg.Ingest)
	}

	ns.mu.Lock()
	defer ns.mu.Unlock()
	var prev *db.DB
	if snap := ns.snap.Load(); snap != nil {
		prev = snap.DB
	}
	if ns.live == nil {
		if ns.store == nil || !ns.store.HasTrace() {
			return nil, stats, ErrNoBaseSnapshot
		}
		// Reopened from compacted state (or evicted): rebuild the
		// appendable live store from the committed chain first. Only the
		// first append after a reopen pays for the replay.
		view, _, err := ns.replayLocked()
		if err != nil {
			return nil, stats, err
		}
		ns.epoch++
		prev = view
	}
	if ns.store != nil {
		// Commit before consume: consuming can stage partial per-context
		// state even when it errors, and replaying the committed chain
		// through the same reader is deterministic, so a recovered
		// server reaches the pre-crash state including rejected-chunk
		// staging effects. A failed commit consumed nothing.
		if err := s.durableWrite(func() error { return ns.store.AppendTrace(raw) }); err != nil {
			return nil, stats, fmt.Errorf("server: %s: %w", source, err)
		}
	}
	start := time.Now()
	n, err := ns.sd.Consume(tr)
	if err != nil {
		return nil, stats, fmt.Errorf("server: appending %s: %w", source, err)
	}
	if n == 0 {
		return nil, stats, fmt.Errorf("server: %s contains no decodable events", source)
	}
	view, results, sstats, err := ns.sd.Derive(s.stopCtx)
	if err != nil {
		// The snapshot stands and the deriver's cache is untouched;
		// consumed events stay staged like a consume error's would.
		return nil, stats, fmt.Errorf("server: deriving %s: %w", source, err)
	}
	checks, err := analysis.CheckAll(view, s.rules)
	if err != nil {
		return nil, stats, fmt.Errorf("server: checking %s: %w", source, err)
	}
	if ns.store != nil {
		// Compact before publishing so a restart reopens at this
		// generation without a replay.
		ns.compact(view)
	}

	ns.gen++
	snap := &Snapshot{
		Gen:      ns.gen,
		Epoch:    ns.epoch,
		DB:       view,
		Source:   source,
		LoadedAt: time.Now().UTC(),
		Checks:   checks,
	}
	stats.Events = n
	stats.Dirty = view.DirtyGroupsSince(prev)
	stats.Premined = sstats.Delta.Reused
	ns.snap.Store(snap)
	// The derivation pass of this append already holds the
	// default-options rules; publishing them into the query cache makes
	// the post-append /v1/rules refresh a pure cache hit.
	ns.cache.adopt(ns.sd.Options().Key(), results, snap.Gen, snap.Epoch)
	stats.Elapsed = time.Since(start)
	s.settleResident(ns, ns.resident.Load()+counted.n-tr.HeaderLen())
	s.m.appends.Inc()
	s.m.appendEvents.Add(uint64(n))
	s.m.groupsDirtied.Add(uint64(stats.Dirty))
	s.m.groupsPremined.Add(uint64(stats.Premined))
	s.m.appendNanos.Add(uint64(stats.Elapsed))
	return snap, stats, nil
}

// compact refreshes the store's state segment from a view whose trace
// is already committed. It is best-effort: the state is a cache of the
// trace chain, so a failure only costs the next reopen a replay. It
// sets the degraded gauge and logs; the ingest still publishes.
func (ns *namespace) compact(view *db.DB) {
	s := ns.srv
	if err := ns.store.Compact(view); err != nil {
		s.storeDegraded.Store(true)
		if s.cfg.Log != nil {
			fmt.Fprintf(s.cfg.Log, "lockdocd: namespace %s: compacting state (next reopen replays the trace): %v\n", ns.name, err)
		}
	}
}

// replayLocked rebuilds the appendable live store from the store's
// committed trace chain through a fresh StreamDeriver and adopts it as
// the namespace's live store. It returns the sealed view and its
// default-options rules, and charges the raw bytes it replayed — the
// same bytes the live store holds whether it was built by uploads or
// by this replay. Publishing is the caller's job. Caller holds ns.mu.
func (ns *namespace) replayLocked() (*db.DB, []core.Result, error) {
	s := ns.srv
	// The live store built here is what new commits extend, so the
	// chain must not continue past a damaged segment the replay stops at.
	if dropped, err := ns.store.RepairTrace(); err != nil {
		return nil, nil, fmt.Errorf("server: %w (%v)", ErrStoreWrite, err)
	} else if dropped > 0 && s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "lockdocd: namespace %s: cut %d store entries at a damaged trace segment\n", ns.name, dropped)
	}
	replayed := &countingReader{r: ns.store.TraceReader()}
	tr := trace.NewContinuationReader(replayed, s.cfg.Ingest)
	live := db.New(s.importConfig())
	sd := core.NewStreamDeriver(live, s.streamOptions())
	if _, err := sd.Consume(tr); err != nil {
		return nil, nil, fmt.Errorf("server: replaying store trace: %w", err)
	}
	view, results, _, err := sd.Derive(s.stopCtx)
	if err != nil {
		return nil, nil, fmt.Errorf("server: deriving store trace: %w", err)
	}
	if view.RawAccesses == 0 && len(view.Groups()) == 0 {
		return nil, nil, fmt.Errorf("server: store trace contains no decodable observations%s",
			degradedSuffix(view))
	}
	ns.dropLiveLocked()
	ns.live, ns.sd = live, sd
	s.settleResident(ns, replayed.n)
	return view, results, nil
}

// dropLiveLocked releases the appendable live store and its deriver.
// Caller holds ns.mu.
func (ns *namespace) dropLiveLocked() {
	ns.live, ns.sd = nil, nil
}

// storeFootprint is the resident-byte estimate of a namespace opened
// from its compacted state: groups hydrate lazily from compressed
// blocks, so the on-disk segment bytes stand in for the (unknown until
// hydrated) raw trace size.
func (ns *namespace) storeFootprint() int64 {
	var n int64
	for _, e := range ns.store.Manifest() {
		n += e.Size
	}
	return n
}

// traceSegments counts the trace segments in the store's manifest.
func (ns *namespace) traceSegments() uint64 {
	var n uint64
	for _, e := range ns.store.Manifest() {
		if e.Kind == segstore.KindTrace {
			n++
		}
	}
	return n
}

// openStoreLocked republishes the namespace's segment store content —
// the fast path decodes the compacted state segment and groups hydrate
// lazily; when the state is missing, damaged or behind the trace chain
// it falls back to replaying the trace segments. Returns (nil, nil) on
// an empty store. Caller holds ns.mu.
func (ns *namespace) openStoreLocked() (*Snapshot, error) {
	s := ns.srv
	if ns.store == nil {
		return nil, errors.New("server: no segment store configured")
	}
	var (
		view          *db.DB
		ok            bool
		err           error
		replayResults []core.Result
	)
	if ns.store.StateCurrent() {
		if view, ok, err = ns.store.LoadState(); err != nil {
			return nil, err
		}
	}
	source := "store:" + ns.store.Dir()
	if ok {
		ns.dropLiveLocked()
		s.settleResident(ns, ns.storeFootprint())
	} else {
		if !ns.store.HasTrace() {
			return nil, nil
		}
		source = "store-replay:" + ns.store.Dir()
		if view, replayResults, err = ns.replayLocked(); err != nil {
			return nil, err
		}
		ns.compact(view)
	}
	checks, err := analysis.CheckAll(view, s.rules)
	if err != nil {
		return nil, fmt.Errorf("server: checking store state: %w", err)
	}
	// A restart resumes the generation at the trace segment count. That
	// is a floor, not an exact restore: an append with an empty payload
	// bumps the generation without adding a segment, and a chunk that is
	// committed and then rejected adds one without a bump. Within a
	// process the generation never moves backwards.
	ns.gen = max(ns.gen+1, ns.traceSegments())
	ns.epoch++
	snap := &Snapshot{
		Gen:      ns.gen,
		Epoch:    ns.epoch,
		DB:       view,
		Source:   source,
		LoadedAt: time.Now().UTC(),
		Checks:   checks,
	}
	ns.snap.Store(snap)
	ns.cache.reset()
	if replayResults != nil {
		ns.cache.adopt(ns.sd.Options().Key(), replayResults, snap.Gen, snap.Epoch)
	}
	s.m.reloads.Inc()
	return snap, nil
}

// ensureOpen lazily re-hydrates an evicted namespace from its store. A
// namespace that was never loaded (no durable content) is left empty —
// the caller's snapshotOr503 answers as before. Safe to call
// concurrently; the first caller pays the reopen, the rest wait on
// ns.mu and find the published snapshot.
func (ns *namespace) ensureOpen() error {
	if ns.snap.Load() != nil || ns.store == nil {
		return nil
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.snap.Load() != nil { // lost the race to another reopener
		return nil
	}
	snap, err := ns.openStoreLocked()
	if err != nil {
		return err
	}
	if snap != nil {
		ns.nm.reopens.Inc()
	}
	return nil
}
