// Command lockdocd is the resident LockDoc analysis server: it keeps
// imported traces in memory behind immutable snapshots and answers
// rule, check, violation and documentation queries over HTTP from each
// snapshot's mined hypothesis table and its cached selections instead
// of re-running the offline pipeline per question.
//
// Usage:
//
//	lockdocd [-addr 127.0.0.1:8750] [-trace trace.lkdc] [-cache-size 64] [-j N] [-quiet] [-debug-addr 127.0.0.1:6060] [-lenient] [-max-errors N]
//	         [-store-dir DIR] [-max-body-bytes N] [-rate-limit N] [-rate-burst N] [-max-inflight N] [-mem-budget-bytes N] [-drain-timeout 5s]
//	         [-max-namespaces N] [-ns-rate-limit N] [-ns-rate-burst N]
//
// Endpoints (each namespace owns its own trace, snapshot and caches;
// the legacy unprefixed /v1 routes are deprecated aliases for the
// "default" namespace):
//
//	GET    /v1/ns                    list namespaces (epoch, footprint, eviction state)
//	PUT    /v1/ns/{id}               create a namespace
//	GET    /v1/ns/{id}               inspect a namespace
//	DELETE /v1/ns/{id}               delete a namespace and its store directory
//	GET    /v1/ns/{id}/rules         derived winning rules    (?tac= ?tco= ?naive= ?type= ?hypotheses=true)
//	GET    /v1/ns/{id}/checks        documented-rule verdicts
//	GET    /v1/ns/{id}/violations    rule violations          (?tac= ?max= ?summary=true)
//	GET    /v1/ns/{id}/doc           generated locking docs   (?type=inode:ext4)
//	GET    /v1/ns/{id}/stats         ingestion + degraded-mode counters
//	POST   /v1/ns/{id}/traces        upload a trace (raw body), becomes the namespace's snapshot
//	GET    /healthz                  liveness
//	GET    /metrics                  Prometheus-style counters (per-namespace lockdocd_ns_* included)
//
// With -store-dir each namespace persists into a segment store under
// its own subdirectory: an upload or append is acknowledged only after
// its bytes are committed to the store's trace chain, so a restart
// (even after SIGKILL) serves every acknowledged byte and keeps
// accepting appends. -mem-budget-bytes bounds the raw trace bytes
// resident across all namespaces: an upload that would overflow it
// first LRU-evicts idle store-backed namespaces, which transparently
// re-open from disk on their next request, and sheds with 503 only if
// that frees too little.
//
// Exit codes: 0 clean shutdown (SIGINT/SIGTERM), 1 fatal, 2 bad flags.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"lockdoc/internal/cli"
	"lockdoc/internal/obs"
	"lockdoc/internal/resilience"
	"lockdoc/internal/server"
)

func main() { cli.Main("lockdocd", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fl := cli.Flags("lockdocd", stderr)
	addr := fl.String("addr", "127.0.0.1:8750", "listen address")
	tracePath := fl.String("trace", "", "trace file to preload as the first snapshot")
	cacheSize := fl.Int("cache-size", server.DefaultCacheSize, "rule selections each snapshot caches, one per distinct option set")
	quiet := fl.Bool("quiet", false, "suppress the per-request access log")
	storeDir := fl.String("store-dir", "", "directory for the crash-safe compressed segment store (empty = in-memory only); a restart reopens its compacted state instantly instead of re-importing")
	maxBody := fl.Int64("max-body-bytes", 0, "largest accepted /v1/traces request body (0 = built-in 512 MiB cap)")
	rateLimit := fl.Float64("rate-limit", 0, "sustained /v1 requests per second admitted (0 = unlimited)")
	rateBurst := fl.Int("rate-burst", 0, "burst size for -rate-limit (0 = same as the rate)")
	maxInflight := fl.Int("max-inflight", 0, "concurrent /v1 requests admitted (0 = unlimited)")
	memBudget := fl.Int64("mem-budget-bytes", 0, "raw trace bytes resident across all namespaces; idle ones are evicted to disk, then uploads shed (0 = unlimited)")
	drainTimeout := fl.Duration("drain-timeout", 5*time.Second, "how long shutdown waits for in-flight requests to finish")
	maxNamespaces := fl.Int("max-namespaces", 0, "namespaces the server will register, the default included (0 = unlimited)")
	nsRateLimit := fl.Float64("ns-rate-limit", 0, "sustained requests per second admitted per namespace (0 = unlimited)")
	nsRateBurst := fl.Int("ns-rate-burst", 0, "burst size for -ns-rate-limit (0 = same as the rate)")
	var par cli.DeriveFlags
	par.Register(fl)
	var ingest cli.IngestFlags
	ingest.Register(fl)
	var obsf cli.ObsFlags
	obsf.Register(fl)
	if err := cli.Parse(fl, args); err != nil {
		return err
	}
	if ctx, err = obsf.Start(ctx, stderr); err != nil {
		return err
	}
	defer func() {
		if e := obsf.Finish(stderr); err == nil {
			err = e
		}
	}()

	var accessLog io.Writer
	if !*quiet {
		accessLog = stderr
	}
	reg := obsf.Registry()
	if reg == nil {
		// No -obs flags: still share one registry between the server
		// and its segment stores, so /metrics exposes the store
		// instruments alongside the serving ones.
		reg = obs.NewRegistry()
	}
	retry := resilience.DefaultBackoff
	retry.Metrics = resilience.NewMetrics(reg)
	srv := server.New(server.Config{
		CacheSize:      *cacheSize,
		Parallelism:    par.Parallelism,
		Ingest:         ingest.ReaderOptions(),
		Obs:            reg,
		Log:            accessLog,
		StoreRoot:      *storeDir,
		StoreRetry:     retry,
		MaxBodyBytes:   *maxBody,
		RateLimit:      *rateLimit,
		RateBurst:      *rateBurst,
		MaxInflight:    *maxInflight,
		MemBudgetBytes: *memBudget,
		MaxNamespaces:  *maxNamespaces,
		NsRateLimit:    *nsRateLimit,
		NsRateBurst:    *nsRateBurst,
	})
	// Reopen first: a preloaded -trace then replaces (and re-commits
	// over) whatever the default's directory held.
	if *storeDir != "" {
		opened, err := srv.OpenStores()
		if err != nil {
			return err
		}
		if snap := srv.Snapshot(); snap != nil {
			fmt.Fprintf(stderr, "lockdocd: reopened %s: %d transactions, %d groups (generation %d)\n",
				*storeDir, snap.DB.Transactions, snap.DB.GroupCount(), snap.Gen)
		}
		if opened > 1 {
			fmt.Fprintf(stderr, "lockdocd: reopened %s: %d namespaces serving\n", *storeDir, opened)
		}
	}
	if *tracePath != "" {
		snap, err := srv.LoadTraceFile(*tracePath)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "lockdocd: loaded %s: %d transactions, %d groups (generation %d)\n",
			*tracePath, snap.DB.Transactions, snap.DB.GroupCount(), snap.Gen)
		if sum := snap.DB.DegradedSummary(); sum != "" {
			fmt.Fprintf(stderr, "lockdocd: degraded ingest: %s\n", sum)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "lockdocd: listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	select {
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		// Refuse new /v1 work and cancel in-flight derivations so the
		// connection drain below finishes within the timeout instead of
		// waiting out long queries.
		srv.BeginShutdown()
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "lockdocd: shut down")
		return nil
	}
}
