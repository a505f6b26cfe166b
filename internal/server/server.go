// Package server implements lockdocd's resident analysis service.
//
// The one-shot lockdoc-* CLIs re-read the trace, rebuild the store and
// re-derive every hypothesis per invocation — the paper's offline
// pipeline (Sec. 5). The server instead ingests traces once into live
// appendable stores and answers many queries against sealed snapshots
// of them:
//
//   - the service is multi-tenant: a sharded namespace registry maps
//     tenant ids onto independent per-namespace states, each owning its
//     own live db.DB, StreamDeriver, epoch counter and (when
//     configured) segment-store subdirectory.
//     The legacy /v1/* surface aliases the "default" namespace, so a
//     single-tenant deployment never notices the registry,
//   - the live db.DB keeps per-context reconstruction state (held-lock
//     stacks, open transactions) across uploads, so POST .../traces
//     ?mode=append resumes ingestion exactly where the previous chunk
//     stopped instead of replaying from offset 0,
//   - a snapshot bundles one sealed view of the store with its
//     generation number and the eagerly computed documented-rule
//     checks; it is never mutated after publication, so request
//     handlers read it without locks. Only what is derived from it
//     fills in, each part once, under its own lock (see slot): its
//     unpruned hypothesis table, its rule selections and its memo of
//     the parameterless JSON read bodies,
//   - every rule query selects from its snapshot's one table, whatever
//     its options (core.Select). Each load, append and replay publishes
//     the table its ingest pass mined, re-mining only the observation
//     groups the append dirtied (core.StreamDeriver); a snapshot
//     reopened from compacted state mines its table on first use,
//   - uploads go through the lenient v2 reader, so a damaged trace
//     degrades into drop counters and corruption reports (surfaced via
//     .../stats) instead of an ingestion failure,
//   - one memory budget (Config.MemBudgetBytes) bounds the raw trace
//     bytes resident across all namespaces: uploads that would overflow
//     it first evict idle namespaces LRU-first and shed only if that
//     frees too little. Eviction drops the snapshot, deriver and caches
//     but keeps the on-disk store, and the evicted tenant's next query
//     transparently re-opens from the compacted state segment,
//   - durability has one backend, the segment store: the trace chain is
//     the commit point of every acknowledged ingest and the compacted
//     state segment is a cache of it (DESIGN.md §13).
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lockdoc/internal/analysis"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/fs"
	"lockdoc/internal/manifest"
	"lockdoc/internal/obs"
	"lockdoc/internal/resilience"
	"lockdoc/internal/segstore"
	"lockdoc/internal/trace"
)

// DefaultCacheSize bounds each snapshot's LRU of rule selections when
// Config.CacheSize is zero. A selection without a cut-off or a length
// cap shares its table's hypotheses, so an entry costs little more
// than one []core.Result.
const DefaultCacheSize = 64

// ErrNoBaseSnapshot rejects an append before any full trace was loaded:
// a continuation has nothing to resume from.
var ErrNoBaseSnapshot = errors.New("server: no base trace to append to; upload a full trace first")

// ErrStoreWrite marks an ingest rejected because the segment store
// could not commit it even after retries. Nothing was consumed: the
// previous snapshot is still served and the on-disk trace chain is
// unchanged, so the client should retry once the volume recovers.
var ErrStoreWrite = errors.New("segment store write failed; ingest rejected to preserve durability")

// errNsLimit rejects namespace creation past Config.MaxNamespaces.
var errNsLimit = errors.New("server: namespace limit reached")

// Config configures a Server.
type Config struct {
	// CacheSize caps each snapshot's LRU of rule selections, one per
	// options key (entries, not bytes). 0 means DefaultCacheSize.
	CacheSize int
	// Parallelism is the derivation worker count of ingest passes and
	// of a reopened snapshot's table. 0 means GOMAXPROCS.
	Parallelism int
	// Ingest selects strict or lenient trace decoding for LoadTrace and
	// /v1 trace uploads.
	Ingest trace.ReaderOptions
	// Import overrides the post-processing filter configuration.
	// nil means fs.DefaultConfig(). Its Lenient field follows
	// Ingest.Lenient either way.
	Import *db.Config
	// Rules is the documented-rule corpus checked against every
	// snapshot. nil means fs.DocumentedRules().
	Rules []analysis.RuleSpec
	// Obs is the metric registry lockdocd_* instruments register on.
	// nil means a private registry (so /metrics always works). Passing
	// a shared registry folds the server's serving metrics and the
	// ingestion/derivation pipeline instruments into one exposition.
	Obs *obs.Registry
	// Log, when non-nil, receives one access-log line per request.
	Log io.Writer

	// RateLimit admits at most this many /v1 requests per second
	// (token bucket of depth RateBurst); excess requests shed with 429
	// and a Retry-After. 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket depth. <= 0 means max(1, RateLimit).
	RateBurst int
	// MaxInflight caps concurrently served /v1 requests; excess
	// requests shed with 503. 0 means unlimited.
	MaxInflight int
	// MemBudgetBytes caps the raw trace bytes resident across every
	// namespace plus the declared sizes of uploads in flight. An upload
	// that would exceed it first evicts idle store-backed namespaces,
	// least recently used first (snapshot, deriver and caches dropped;
	// the on-disk store kept, so the next request re-opens
	// transparently), and sheds with 503 only if it still does not fit.
	// Every ingest then trims residency back under the cap the same way.
	// The cap is soft by up to one namespace: an append that first
	// replays an evicted namespace's chain charges the whole chain, and
	// the trim never evicts the namespace it just served.
	// 0 means unlimited.
	MemBudgetBytes int64
	// MaxBodyBytes caps one trace-upload request body; overflow answers
	// 413. 0 means the 512 MiB default.
	MaxBodyBytes int64

	// Store, when non-nil, persists the default namespace's ingestion
	// into a compressed segment store. Every accepted load or append
	// commits its raw blocks to the trace chain (with transient-failure
	// retries per StoreRetry) before the live store consumes them; a
	// commit that fails even after retries rejects the ingest — the
	// previous snapshot stays served — rather than silently dropping
	// durability. Every published snapshot is then compacted into a
	// state segment, best-effort, so OpenStore on the next start
	// republishes it without replaying the trace.
	Store *segstore.Store
	// StoreRetry is the backoff policy for transient trace-chain commit
	// failures. Zero Attempts means resilience.DefaultBackoff.
	StoreRetry resilience.Backoff

	// StoreRoot, when non-empty, roots per-namespace segment stores:
	// namespace NAME persists under StoreRoot/NAME, opened lazily at
	// namespace creation and re-opened by OpenStores at boot. For
	// compatibility with pre-namespace deployments, a MANIFEST directly
	// under StoreRoot makes the default namespace use StoreRoot itself.
	// Ignored for the default namespace when Store is also set.
	StoreRoot string

	// MaxNamespaces caps registered namespaces, counting "default".
	// Creation past the cap answers 429. 0 means unlimited.
	MaxNamespaces int
	// NsRateLimit admits at most this many requests per second per
	// namespace (each namespace gets its own token bucket of depth
	// NsRateBurst), underneath the global RateLimit. 0 disables
	// per-namespace limiting.
	NsRateLimit float64
	// NsRateBurst is the per-namespace token-bucket depth. <= 0 means
	// max(1, NsRateLimit).
	NsRateBurst int
}

// Snapshot is one sealed view of a namespace's trace store, immutable
// after publication but for what is derived from it. That fills in on
// demand and lives and dies with the snapshot: an append, a reload, an
// eviction and a delete each replace or drop the snapshot, so nothing
// derived is ever invalidated.
type Snapshot struct {
	Gen   uint64 // advances on every publication (loads and appends)
	Epoch uint64 // advances only when a full load replaces the store
	DB    *db.DB // sealed read-only view (db.DB.Seal)

	Source   string
	LoadedAt time.Time
	// Checks holds the documented-rule verdicts, computed once at load
	// time so concurrent checks handlers never touch the store's
	// mutable intern tables.
	Checks []analysis.CheckResult

	// table is the unpruned default-options hypothesis table every rule
	// query selects from: a hypothesis's supports depend only on its
	// group, while t_ac, t_co, the strategy and MaxLocks only choose
	// among hypotheses. It holds the publishing pass's results, or, for
	// a snapshot reopened from compacted state, is mined by the first
	// rule query.
	table slot[core.Result]
	// selections holds each options key's results, selected from table
	// by its first query, in an LRU bounded by Config.CacheSize.
	// Publication with a table seeds it with the default options'
	// selection, which is the table itself.
	selections *lru
	// memo holds the bodies of the parameterless JSON read routes,
	// each built by the first request that asks for it.
	memo bodyMemo
}

// AppendStats reports what one AppendTrace call did.
type AppendStats struct {
	Events   int           // events decoded and merged
	Dirty    int           // observation groups the append touched
	Premined int           // groups whose rules an earlier load or append pass pre-mined
	Elapsed  time.Duration // consume + seal + checks + publish
}

// Server is the resident analysis service behind lockdocd.
type Server struct {
	cfg   Config
	rules []analysis.RuleSpec

	// reg maps namespace ids onto per-tenant states. The default
	// namespace is created eagerly in New and cannot be deleted.
	reg     *nsRegistry
	nsCount atomic.Int64 // registered namespaces, for MaxNamespaces

	obs *obs.Registry
	m   *serverMetrics
	// Pipeline instruments shared by every load/append/derivation any
	// namespace runs; registered once so repeated loads and namespace
	// churn never re-register.
	dbMetrics   *db.Metrics
	coreMetrics *core.Metrics
	// Durability instruments shared by every per-namespace store the
	// server opens under StoreRoot (a store handed in via Config.Store
	// carries its own).
	segMetrics *segstore.Metrics
	// nsm caches per-namespace instrument sets by name: obs panics on
	// duplicate registration, so a namespace deleted and re-created
	// must reuse the instruments its first incarnation registered.
	nsmMu sync.Mutex
	nsm   map[string]*nsMetrics

	// Admission control (each is nil when unconfigured = unlimited).
	limiter   *resilience.TokenBucket
	admission *resilience.Semaphore

	// resident is the raw trace bytes resident across all namespaces
	// plus the reservations of uploads in flight — the one reading
	// MemBudgetBytes is enforced against. touchClock is the logical
	// clock namespaces stamp on use, so LRU ordering is deterministic
	// and free of wall-clock reads.
	resident   atomic.Int64
	touchClock atomic.Int64

	// Durability. storeDegraded mirrors the last store write (1 = a
	// commit failed after retries, or a compaction failed) for the
	// health gauge. bootErr records a default-namespace store that
	// failed to open in New (New's signature predates fallible
	// construction); OpenStores surfaces it.
	storeRetry    resilience.Backoff
	storeDegraded atomic.Bool
	bootErr       error

	// stopCtx is cancelled by BeginShutdown; in-flight request
	// contexts are derived from it so long derivations drain.
	stopCtx context.Context
	stop    context.CancelFunc

	// routes is the compiled route table dispatch matches against;
	// testRoutes lets tests inject extra routes (panic probes) without
	// reaching into a mux.
	routes     []route
	testRoutes []route

	// testDeriveEnter, when non-nil, runs before a snapshot's table is
	// mined — a test seam for drain and cancellation behavior. A non-nil
	// return aborts the mine with that error.
	testDeriveEnter func(context.Context) error
}

// streamOptions are the derivation options of the ingest path's
// StreamDeriver and of a reopened snapshot's table. They match the
// default rules request (core.Options.Key ignores Parallelism and
// Metrics) and set neither a cut-off nor a cap, so the results of each
// publishing pass are both that query's selection and the unpruned
// table every other query selects from.
func (s *Server) streamOptions() core.Options {
	return core.Options{
		AcceptThreshold: core.DefaultAcceptThreshold,
		Parallelism:     s.cfg.Parallelism,
		Metrics:         s.coreMetrics,
	}
}

// New creates a Server with no snapshot loaded; queries answer 503
// until LoadTrace (or a trace upload) publishes one. The default
// namespace exists from the start, wired to Config.Store (or its
// StoreRoot subdirectory).
func New(cfg Config) *Server {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	s := &Server{
		cfg:   cfg,
		rules: cfg.Rules,
		obs:   cfg.Obs,
		nsm:   make(map[string]*nsMetrics),
	}
	if s.rules == nil {
		s.rules = fs.DocumentedRules()
	}
	if s.obs == nil {
		s.obs = obs.NewRegistry()
	}
	burst := cfg.RateBurst
	if burst <= 0 {
		burst = max(1, int(cfg.RateLimit))
	}
	s.limiter = resilience.NewTokenBucket(cfg.RateLimit, burst)
	s.admission = resilience.NewSemaphore(cfg.MaxInflight)
	s.storeRetry = cfg.StoreRetry
	if s.storeRetry.Attempts == 0 {
		s.storeRetry = resilience.DefaultBackoff
	}
	s.stopCtx, s.stop = context.WithCancel(context.Background())
	s.dbMetrics = db.NewMetrics(s.obs)
	s.coreMetrics = core.NewMetrics(s.obs)
	if s.cfg.Ingest.Metrics == nil {
		s.cfg.Ingest.Metrics = trace.NewMetrics(s.obs)
	}
	if cfg.StoreRoot != "" {
		s.segMetrics = segstore.NewMetrics(s.obs)
	}

	s.reg = newNSRegistry()
	def := s.newNamespace(DefaultNamespace)
	def.store = cfg.Store
	if err := s.attachStore(def); err != nil {
		// New's signature predates fallible construction; record the
		// failure for OpenStores (lockdocd calls it right after New and
		// exits on error) instead of silently dropping durability.
		s.bootErr = err
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "lockdocd: opening default namespace store: %v\n", err)
		}
	}
	s.reg.getOrCreate(DefaultNamespace, func() (*namespace, error) { return def, nil })
	s.nsCount.Store(1)

	s.m = newServerMetrics(s.obs, s)
	s.routes = buildRoutes()
	return s
}

// newNamespace builds an empty namespace (not yet registered).
func (s *Server) newNamespace(name string) *namespace {
	burst := s.cfg.NsRateBurst
	if burst <= 0 {
		burst = max(1, int(s.cfg.NsRateLimit))
	}
	ns := &namespace{
		name:    name,
		srv:     s,
		limiter: resilience.NewTokenBucket(s.cfg.NsRateLimit, burst),
		nm:      s.nsMetricsFor(name),
	}
	ns.touch()
	return ns
}

// storeDirFor maps a namespace onto its segment-store directory.
// A MANIFEST directly under StoreRoot is a pre-namespace layout (the
// CLI's -store flag and older lockdocd wrote there): the default
// namespace keeps using it so existing stores survive the upgrade.
func (s *Server) storeDirFor(name string) string {
	if name == DefaultNamespace {
		if _, err := os.Stat(filepath.Join(s.cfg.StoreRoot, manifest.Name)); err == nil {
			return s.cfg.StoreRoot
		}
	}
	return filepath.Join(s.cfg.StoreRoot, name)
}

// attachStore opens the namespace's segment store under StoreRoot
// (unless one is already wired in, i.e. the default namespace's
// Config.Store).
func (s *Server) attachStore(ns *namespace) error {
	if ns.store != nil || s.cfg.StoreRoot == "" {
		return nil
	}
	st, err := segstore.Open(s.storeDirFor(ns.name), segstore.Options{Metrics: s.segMetrics})
	if err != nil {
		return fmt.Errorf("server: opening store for namespace %s: %w", ns.name, err)
	}
	ns.store, ns.storeOwned = st, true
	return nil
}

// defaultNS returns the default namespace (always registered).
func (s *Server) defaultNS() *namespace { return s.reg.get(DefaultNamespace) }

// ensureNamespace returns the named namespace, creating it (with its
// store) if absent. Creation past MaxNamespaces returns
// errNsLimit.
func (s *Server) ensureNamespace(name string) (*namespace, error) {
	if ns := s.reg.get(name); ns != nil {
		return ns, nil
	}
	ns, _, err := s.reg.getOrCreate(name, func() (*namespace, error) {
		if n := s.nsCount.Add(1); s.cfg.MaxNamespaces > 0 && n > int64(s.cfg.MaxNamespaces) {
			s.nsCount.Add(-1)
			return nil, errNsLimit
		}
		ns := s.newNamespace(name)
		if err := s.attachStore(ns); err != nil {
			s.nsCount.Add(-1)
			return nil, err
		}
		return ns, nil
	})
	return ns, err
}

// settleResident pins a namespace's resident-byte accounting to total,
// propagating the delta into the server-wide total. Called with ns.mu
// held.
func (s *Server) settleResident(ns *namespace, total int64) {
	s.resident.Add(total - ns.resident.Swap(total))
}

// within reports whether a resident total of n bytes fits MemBudgetBytes.
func (s *Server) within(n int64) bool {
	return s.cfg.MemBudgetBytes <= 0 || n <= s.cfg.MemBudgetBytes
}

// tryReserve adds n bytes to the resident total iff the result stays
// within MemBudgetBytes.
func (s *Server) tryReserve(n int64) bool {
	for {
		used := s.resident.Load()
		if !s.within(used + n) {
			return false
		}
		if s.resident.CompareAndSwap(used, used+n) {
			return true
		}
	}
}

// reserveUpload admits an upload of n declared bytes into ns: when the
// reservation does not fit, idle namespaces are evicted to make room
// before giving up. An upload that eviction cannot admit — over the
// body cap, or larger than every idle namespace frees — sheds without
// evicting anything. The caller releases the reservation with
// endUpload.
func (s *Server) reserveUpload(ns *namespace, n int64) bool {
	if s.tryReserve(n) {
		return true
	}
	if n > s.maxBody() || !s.within(s.resident.Load()-s.evictable(ns)+n) {
		return false
	}
	s.evictFor(ns, n)
	return s.tryReserve(n)
}

// evictable sums the resident bytes that evicting every idle namespace
// but exclude would free right now.
func (s *Server) evictable(exclude *namespace) int64 {
	var n int64
	for _, ns := range s.reg.all() {
		if ns == exclude || !ns.mu.TryLock() {
			continue
		}
		if ns.evictableLocked() {
			n += ns.resident.Load()
		}
		ns.mu.Unlock()
	}
	return n
}

// endUpload releases an upload's reservation and trims residency back
// under the budget now that the ingest settled its real footprint.
func (s *Server) endUpload(ns *namespace, n int64) {
	s.resident.Add(-n)
	s.evictFor(ns, 0)
}

// evictFor evicts least-recently-used namespaces until n more bytes fit
// MemBudgetBytes. exclude (the namespace the triggering request
// targets) is never evicted. Must be called without any ns.mu held;
// candidates that are busy (lock contended, live requests, or no store
// to re-open from) are skipped rather than waited on.
func (s *Server) evictFor(exclude *namespace, n int64) {
	if s.within(s.resident.Load() + n) {
		return
	}
	cands := s.reg.all()
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].lastTouch.Load() < cands[j].lastTouch.Load()
	})
	for _, ns := range cands {
		if s.within(s.resident.Load() + n) {
			return
		}
		if ns != exclude {
			s.evictNS(ns)
		}
	}
}

// evictNS drops a namespace's in-memory state — snapshot (with all it
// derived), deriver, live store, and the groups the store's copy-forward
// index pins — while keeping the on-disk store, so the next request
// re-opens via the compacted-state fast path. The store itself stays open: snapshots
// already handed to in-flight requests hydrate groups through it, and
// an open mmap costs address space, not heap. Refuses (returns false)
// when the namespace is busy or has no durable copy to come back from.
func (s *Server) evictNS(ns *namespace) bool {
	if !ns.mu.TryLock() {
		return false
	}
	defer ns.mu.Unlock()
	if !ns.evictableLocked() {
		return false
	}
	ns.dropLiveLocked()
	ns.snap.Store(nil)
	ns.store.DropCache()
	s.settleResident(ns, 0)
	ns.nm.evictions.Inc()
	return true
}

// deleteNamespace unregisters and tears down a namespace. The default
// namespace is not deletable (callers enforce that with a 400).
func (s *Server) deleteNamespace(ns *namespace, selfRefs int64) {
	if s.reg.delete(ns.name) == nil {
		return // lost a delete race; the winner tears down
	}
	s.nsCount.Add(-1)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.dropLiveLocked()
	ns.snap.Store(nil)
	s.settleResident(ns, 0)
	if ns.store != nil && ns.storeOwned {
		dir := ns.store.Dir()
		// Close unmaps segment pages, so only quiesced stores close;
		// a store still referenced by a concurrent reader is left open
		// (the unlinked files stay readable through the mmap until the
		// last reference drops).
		if ns.refs.Load() <= selfRefs {
			ns.store.Close()
		}
		os.RemoveAll(dir)
		ns.store = nil
	}
}

// OpenStores re-opens every namespace found under StoreRoot (plus the
// default namespace's legacy root-level store, if any), republishing
// each from its compacted state, and then applies the namespace memory
// budget. It returns the number of namespaces now serving a snapshot.
// With only Config.Store set it degrades to the single-namespace
// OpenStore.
func (s *Server) OpenStores() (int, error) {
	if s.bootErr != nil {
		return 0, s.bootErr
	}
	opened := 0
	// The default namespace's backend is wired already (Config.Store or
	// the root/legacy directory).
	if def := s.defaultNS(); def.store != nil {
		snap, err := s.OpenStore()
		if err != nil {
			return opened, err
		}
		if snap != nil {
			opened++
		}
	}
	if s.cfg.StoreRoot != "" {
		entries, err := os.ReadDir(s.cfg.StoreRoot)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return opened, fmt.Errorf("server: listing %s: %w", s.cfg.StoreRoot, err)
		}
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() || !validNsName(name) || name == DefaultNamespace {
				continue
			}
			ns, err := s.ensureNamespace(name)
			if err != nil {
				return opened, err
			}
			ns.mu.Lock()
			snap, err := ns.openStoreLocked()
			ns.mu.Unlock()
			if err != nil {
				return opened, fmt.Errorf("server: reopening namespace %s: %w", name, err)
			}
			if snap != nil {
				opened++
			}
		}
	}
	s.evictFor(nil, 0)
	return opened, nil
}

// Registry returns the metric registry the server records into — the
// one from Config.Obs, or the private one New created.
func (s *Server) Registry() *obs.Registry { return s.obs }

// Handler returns the HTTP handler serving the full API, wrapped in
// the observability and robustness middleware: request counting,
// in-flight gauge, per-endpoint latency histograms, admission control
// for /v1/* (rate limit, concurrency cap, per-namespace bucket), panic
// recovery into the error envelope, drain-aware request contexts, and
// (when Config.Log is set) one access-log line per request.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.m.requests.Inc()
		s.m.inflight.Inc()
		defer s.m.inflight.Dec()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		label := "other"
		func() {
			defer s.recoverPanic(sw, r)
			label = s.dispatch(sw, r)
		}()
		s.m.observe(label, start)
		if s.cfg.Log != nil {
			fmt.Fprintf(s.cfg.Log, "lockdocd: %s %s %d %dB %s\n",
				r.Method, r.URL.RequestURI(), sw.code, sw.bytes,
				time.Since(start).Round(time.Microsecond))
		}
	})
}

// Snapshot returns the default namespace's published snapshot, or nil
// before the first successful load.
func (s *Server) Snapshot() *Snapshot { return s.defaultNS().snapshot() }

// LoadTraceFile ingests the trace at path into the default namespace
// and publishes it as its new current snapshot (committing it to the
// store first when one is configured).
func (s *Server) LoadTraceFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return s.LoadTrace(f, path)
}

func (s *Server) importConfig() db.Config {
	cfg := fs.DefaultConfig()
	if s.cfg.Import != nil {
		cfg = *s.cfg.Import
	}
	cfg.Lenient = s.cfg.Ingest.Lenient
	if cfg.Metrics == nil {
		cfg.Metrics = s.dbMetrics
	}
	return cfg
}

// LoadTrace ingests a raw trace stream into the default namespace's
// fresh live store, derives the per-snapshot check results, and
// atomically publishes a sealed view as its new current snapshot.
// In-flight queries keep the snapshot they started with. A full load
// starts a new store epoch with a fresh StreamDeriver, since per-group
// reuse cannot survive a store replacement (unlike AppendTrace, which
// re-mines only the groups it dirtied).
//
// With a segment store configured, the stream is buffered and — only
// after the trace proves ingestible — committed as the store's new
// trace chain before the snapshot publishes. A commit failure rejects
// the load (ErrStoreWrite) and leaves both the served snapshot and the
// on-disk chain as they were.
func (s *Server) LoadTrace(r io.Reader, source string) (*Snapshot, error) {
	return s.defaultNS().loadTrace(r, source)
}

// OpenStore republishes the default namespace's segment store content
// as its current snapshot. The fast path decodes the newest compacted
// state segment — observation groups stay on disk and materialize
// lazily on first use — so reopening a large trace costs orders of
// magnitude less than re-importing it. The namespace stays appendable:
// the first append after a reopen replays the trace chain into a fresh
// live store before committing its own bytes.
//
// When no current state exists (a crash or failed compaction between a
// commit and its compaction, or a damaged state segment), OpenStore
// falls back to replaying the store's trace segments, which also
// rebuilds the appendable live store and recompacts the state for the
// next reopen; the snapshot source is then "store-replay:DIR" instead
// of "store:DIR". An empty store publishes nothing and returns (nil,
// nil).
func (s *Server) OpenStore() (*Snapshot, error) {
	ns := s.defaultNS()
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.openStoreLocked()
}

// AppendTrace merges a trace continuation into the default namespace's
// live store and publishes a new sealed snapshot. The stream may be a
// bare v2 block sequence (resuming from any sync-marker boundary, e.g.
// the suffix a tail-follower shipped) or carry a full v2 header; v1
// traces cannot be appended, they have no resumption points.
// Transaction reconstruction resumes from the live per-context state,
// so a transaction spanning the append boundary folds exactly as it
// would have in one batch import.
//
// On a decode error the published snapshot is untouched; events decoded
// before the error remain staged in the live store and surface with the
// next successful append.
//
// With a segment store configured, the chunk's raw bytes are committed
// to the trace chain before they touch the live store. The order
// matters: decoding can stage partial per-context state even when it
// ultimately errors, and replaying the committed chain is
// deterministic, so commit-then-consume guarantees a recovered server
// reaches exactly the pre-crash state — including the staging effects
// of chunks that were rejected after their commit. A failed commit
// (ErrStoreWrite) consumed nothing.
func (s *Server) AppendTrace(r io.Reader, source string) (*Snapshot, AppendStats, error) {
	return s.defaultNS().appendTrace(r, source)
}

func degradedSuffix(d *db.DB) string {
	if sum := d.DegradedSummary(); sum != "" {
		return " (" + sum + ")"
	}
	return ""
}

// derive returns snap's rules under opt: a selection from the
// snapshot's table, made at most once per options key while the key
// stays in the snapshot's LRU. Cancelling ctx aborts a table mine at
// the next group boundary with ctx.Err(); a failed mine fills nothing,
// so the next caller mines again.
func (s *Server) derive(ctx context.Context, snap *Snapshot, opt core.Options) ([]core.Result, error) {
	var err error
	results, hit := snap.selections.get(opt.Key()).get(func() []core.Result {
		var tab []core.Result
		if tab, err = s.table(ctx, snap); err != nil {
			return nil
		}
		sel := make([]core.Result, len(tab))
		for i, t := range tab {
			sel[i] = core.Select(t, opt)
		}
		return sel
	})
	if hit {
		s.m.cacheHits.Inc()
	} else {
		s.m.cacheMisses.Inc()
	}
	return results, err
}

// table returns snap's unpruned table, mining it first if the snapshot
// was published without one.
func (s *Server) table(ctx context.Context, snap *Snapshot) ([]core.Result, error) {
	var err error
	tab, _ := snap.table.get(func() []core.Result {
		if s.testDeriveEnter != nil {
			if err = s.testDeriveEnter(ctx); err != nil {
				return nil
			}
		}
		var results []core.Result
		results, err = core.DeriveAll(ctx, snap.DB, s.streamOptions())
		return results
	})
	return tab, err
}
