// Package cli bundles the plumbing the lockdoc-* commands share:
// opening a trace file into the post-processing store, the common
// -lenient/-max-errors ingestion flags, and the run() pattern that maps
// errors to distinct process exit codes.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"lockdoc/internal/apiclient"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/fs"
	"lockdoc/internal/obs"
	"lockdoc/internal/resilience"
	"lockdoc/internal/segstore"
	"lockdoc/internal/trace"
)

// Process exit codes shared by all lockdoc-* tools.
const (
	ExitClean     = 0 // completed without incident
	ExitFatal     = 1 // failed (or, for diff/lockdep, found regressions)
	ExitUsage     = 2 // bad command line
	ExitRecovered = 3 // completed, but recovered from trace corruption
)

// RunFunc is the testable body of a command: it parses args, writes
// results to stdout and diagnostics to stderr, and reports its outcome
// as an error (nil, *Recovered, or fatal). ctx is cancelled on SIGINT/
// SIGTERM (and by -timeout when the command registers ObsFlags), so
// long derivations and follow loops exit promptly.
type RunFunc func(ctx context.Context, args []string, stdout, stderr io.Writer) error

// Main runs fn with the process's arguments and streams and exits with
// the appropriate code. Each command's main() is exactly this call.
// The context it hands fn is cancelled on the first SIGINT or SIGTERM;
// a second signal kills the process via Go's default disposition.
func Main(name string, fn RunFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := Run(ctx, name, fn, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// Run invokes fn and maps its error to an exit code: nil -> ExitClean,
// *Recovered -> ExitRecovered (after printing the corruption summary on
// stderr), flag parsing problems -> ExitUsage, context cancellation and
// anything else -> ExitFatal.
func Run(ctx context.Context, name string, fn RunFunc, args []string, stdout, stderr io.Writer) int {
	err := fn(ctx, args, stdout, stderr)
	var rec *Recovered
	switch {
	case err == nil:
		return ExitClean
	case errors.Is(err, flag.ErrHelp):
		return ExitClean
	case errors.As(err, &rec):
		fmt.Fprintf(stderr, "%s: %s\n", name, rec.Error())
		return ExitRecovered
	case errors.Is(err, errBadFlags):
		// The FlagSet already printed the diagnostic and usage.
		return ExitUsage
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(stderr, "%s: timed out\n", name)
		return ExitFatal
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(stderr, "%s: interrupted\n", name)
		return ExitFatal
	default:
		fmt.Fprintf(stderr, "%s: error: %s\n", name, err)
		return ExitFatal
	}
}

var errBadFlags = errors.New("cli: bad command line")

// Flags returns a FlagSet wired for the run() pattern: errors and usage
// go to stderr and Parse failures map to ExitUsage.
func Flags(name string, stderr io.Writer) *flag.FlagSet {
	fl := flag.NewFlagSet(name, flag.ContinueOnError)
	fl.SetOutput(stderr)
	return fl
}

// Parse parses args and normalizes flag errors for Run.
func Parse(fl *flag.FlagSet, args []string) error {
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlags
	}
	return nil
}

// Recovered reports that a tool completed its job but the ingestion
// pipeline had to recover from corruption or drop events along the way.
// Run maps it to ExitRecovered.
type Recovered struct {
	Reports      []trace.CorruptionReport
	BytesSkipped int64
	Dropped      uint64 // events a lenient import skipped
	Detail       string // extra counter rendering, e.g. db.DegradedSummary
}

// Error renders the corruption summary printed on stderr.
func (r *Recovered) Error() string {
	if r.Detail != "" {
		return "completed with recovered corruption: " + r.Detail
	}
	return fmt.Sprintf("completed with recovered corruption: %d corruption(s), %d bytes skipped, %d event(s) dropped",
		len(r.Reports), r.BytesSkipped, r.Dropped)
}

// Summarize writes the per-corruption detail lines to w (stderr).
func (r *Recovered) Summarize(w io.Writer) {
	for _, rep := range r.Reports {
		fmt.Fprintf(w, "  corruption at %s\n", rep)
	}
}

// RecoveredFromDB inspects an imported store and returns a *Recovered
// if the ingestion was degraded, or nil for a clean import. Intended as
// a command's final `return cli.RecoveredFromDB(d)`.
func RecoveredFromDB(d *db.DB) error {
	if len(d.Corruptions) == 0 && d.DroppedEvents() == 0 {
		return nil
	}
	return &Recovered{
		Reports:      d.Corruptions,
		BytesSkipped: d.BytesSkipped,
		Dropped:      d.DroppedEvents(),
		Detail:       d.DegradedSummary(),
	}
}

// RecoveredFromReader is RecoveredFromDB for tools that stream the
// trace directly without building a store.
func RecoveredFromReader(r *trace.Reader) error {
	if len(r.Corruptions()) == 0 {
		return nil
	}
	return &Recovered{Reports: r.Corruptions(), BytesSkipped: r.BytesSkipped()}
}

// IngestFlags are the shared trace-ingestion options of every tool that
// reads a trace file.
type IngestFlags struct {
	Lenient   bool
	MaxErrors int
}

// Register installs the -lenient and -max-errors flags on fl.
func (f *IngestFlags) Register(fl *flag.FlagSet) {
	fl.BoolVar(&f.Lenient, "lenient", false,
		"recover from trace corruption (resync at block markers, drop damaged events) instead of failing")
	fl.IntVar(&f.MaxErrors, "max-errors", 100,
		"error budget in -lenient mode: fail hard after this many recovered corruptions")
}

// ReaderOptions converts the flags to trace-level options.
func (f IngestFlags) ReaderOptions() trace.ReaderOptions {
	return trace.ReaderOptions{Lenient: f.Lenient, MaxErrors: f.MaxErrors}
}

// Options controls how OpenDB ingests a trace.
type Options struct {
	// NoFilter disables the function and member black lists but keeps
	// inode subclassing.
	NoFilter bool
	// Ingest selects strict or lenient decoding/import.
	Ingest IngestFlags
	// Obs, when non-nil, registers the ingestion instruments (trace
	// decode/resync counters, db import/seal timings) on this registry —
	// wire it from ObsFlags.Registry().
	Obs *obs.Registry
}

// OpenDB imports the trace at path with the evaluation's filter
// configuration (fs.DefaultConfig).
func OpenDB(path string, opts Options) (*db.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ro := opts.Ingest.ReaderOptions()
	if opts.Obs != nil {
		ro.Metrics = trace.NewMetrics(opts.Obs)
	}
	r, err := trace.NewReaderOptions(f, ro)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return db.Import(r, ImportConfig(opts))
}

// ImportConfig returns the db configuration OpenDB imports with, for
// tools that drive db.New/Consume/Seal themselves (lockdoc-import
// -store-dir needs the sealed view for state compaction).
func ImportConfig(opts Options) db.Config {
	cfg := fs.DefaultConfig()
	if opts.NoFilter {
		cfg = db.Config{SubclassedTypes: cfg.SubclassedTypes}
	}
	cfg.Lenient = opts.Ingest.Lenient
	if opts.Obs != nil {
		cfg.Metrics = db.NewMetrics(opts.Obs)
	}
	return cfg
}

// OpenTrace opens the trace at path for streaming tools (dump, lockdep,
// relations). reg may be nil; when set, decode instruments register on
// it. The caller must Close the returned file.
func OpenTrace(path string, ingest IngestFlags, reg *obs.Registry) (*os.File, *trace.Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	ro := ingest.ReaderOptions()
	if reg != nil {
		ro.Metrics = trace.NewMetrics(reg)
	}
	r, err := trace.NewReaderOptions(f, ro)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return f, r, nil
}

// DeriveFlags are the shared derivation-performance options of every
// tool that runs rule derivation.
type DeriveFlags struct {
	// Parallelism is the derivation worker count (core.Options
	// .Parallelism); 0 means GOMAXPROCS.
	Parallelism int
	// CPUProfile and MemProfile are pprof output paths; empty means
	// the respective profile is off.
	CPUProfile string
	MemProfile string
}

// Register installs the -j, -cpuprofile and -memprofile flags on fl.
func (f *DeriveFlags) Register(fl *flag.FlagSet) {
	fl.IntVar(&f.Parallelism, "j", 0,
		"derivation worker count (0 = GOMAXPROCS, 1 = sequential)")
	fl.StringVar(&f.CPUProfile, "cpuprofile", "",
		"write a pprof CPU profile of the run to this file")
	fl.StringVar(&f.MemProfile, "memprofile", "",
		"write a pprof heap profile to this file on exit")
}

// StartProfiles begins CPU profiling when -cpuprofile was given and
// returns a stop function that finishes the CPU profile and writes the
// heap profile when -memprofile was given. Call it once after flag
// parsing and run the stop function when the command's work is done:
//
//	stopProf, err := derive.StartProfiles()
//	if err != nil { return err }
//	defer func() {
//		if e := stopProf(); err == nil {
//			err = e
//		}
//	}()
//
// The stop function is safe to call when no profiling was requested.
func (f DeriveFlags) StartProfiles() (stop func() error, err error) {
	var cpuOut *os.File
	if f.CPUProfile != "" {
		cpuOut, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuOut); err != nil {
			cpuOut.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuOut != nil {
			pprof.StopCPUProfile()
			if err := cpuOut.Close(); err != nil {
				return err
			}
		}
		if f.MemProfile == "" {
			return nil
		}
		memOut, err := os.Create(f.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC() // settle allocation accounting before the snapshot
		if err := pprof.WriteHeapProfile(memOut); err != nil {
			memOut.Close()
			return err
		}
		return memOut.Close()
	}, nil
}

// Apply stamps the flag values onto derivation options.
func (f DeriveFlags) Apply(opt core.Options) core.Options {
	opt.Parallelism = f.Parallelism
	return opt
}

// StreamDerive is the import+derive entry point: it decodes the trace
// at path into a fresh store through a core.StreamDeriver, seals it
// and derives the rules in one pass. The returned view and results are
// byte-identical to OpenDB + core.DeriveAll of the same file (the view
// is a sealed snapshot; render and RecoveredFromDB accept it
// unchanged).
func StreamDerive(ctx context.Context, path string, opts Options, opt core.Options) (*db.DB, []core.Result, core.StreamStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, core.StreamStats{}, err
	}
	defer f.Close()
	ro := opts.Ingest.ReaderOptions()
	if opts.Obs != nil {
		ro.Metrics = trace.NewMetrics(opts.Obs)
	}
	r, err := trace.NewReaderOptions(f, ro)
	if err != nil {
		return nil, nil, core.StreamStats{}, fmt.Errorf("reading %s: %w", path, err)
	}
	sd := core.NewStreamDeriver(db.New(ImportConfig(opts)), opt)
	if _, err := sd.Consume(r); err != nil {
		return nil, nil, core.StreamStats{}, err
	}
	return sd.Derive(ctx)
}

// ObsFlags are the shared observability options of every lockdoc-*
// command: a whole-run deadline, an end-of-run metrics dump, and the
// opt-in debug listener (Prometheus /metrics + net/http/pprof).
type ObsFlags struct {
	// Timeout bounds the whole run; 0 means no deadline.
	Timeout time.Duration
	// Dump selects the end-of-run metrics rendering on stderr:
	// "none" (default), "prom", or "json".
	Dump string
	// DebugAddr starts the debug HTTP listener when non-empty.
	DebugAddr string

	reg    *obs.Registry
	sink   obs.Sink
	debug  *obs.DebugServer
	cancel context.CancelFunc
}

// Register installs the -timeout, -obs-dump and -debug-addr flags.
func (f *ObsFlags) Register(fl *flag.FlagSet) {
	fl.DurationVar(&f.Timeout, "timeout", 0,
		"abort the run after this duration (0 = no deadline)")
	fl.StringVar(&f.Dump, "obs-dump", "none",
		"dump pipeline metrics to stderr on exit: none, prom, or json")
	fl.StringVar(&f.DebugAddr, "debug-addr", "",
		"serve /metrics and /debug/pprof on this address (empty = off)")
}

// enabled reports whether any metric consumer was requested; without
// one, Registry stays nil and the pipeline's instruments compile to
// nil-receiver no-ops.
func (f *ObsFlags) enabled() bool {
	return (f.Dump != "" && f.Dump != "none" && f.Dump != "nop") || f.DebugAddr != ""
}

// Registry returns the registry pipeline stages should register their
// instruments on — nil unless -obs-dump or -debug-addr asked for one,
// so an unobserved run pays only nil checks.
func (f *ObsFlags) Registry() *obs.Registry {
	if f.reg == nil && f.enabled() {
		f.reg = obs.NewRegistry()
	}
	return f.reg
}

// Start validates the flags and activates them: the returned context
// carries the -timeout deadline, and the -debug-addr listener is
// brought up (its actual address is logged to stderr, useful with
// ":0"). Call Finish when the command's work is done.
func (f *ObsFlags) Start(ctx context.Context, stderr io.Writer) (context.Context, error) {
	sink, err := obs.NewSink(f.Dump)
	if err != nil {
		return ctx, err
	}
	f.sink = sink
	if f.Timeout > 0 {
		ctx, f.cancel = context.WithTimeout(ctx, f.Timeout)
	}
	if f.DebugAddr != "" {
		f.debug, err = obs.ServeDebug(f.DebugAddr, f.Registry())
		if err != nil {
			return ctx, err
		}
		fmt.Fprintf(stderr, "debug listener on http://%s (/metrics, /debug/pprof)\n", f.debug.Addr)
	}
	return ctx, nil
}

// Finish stops the debug listener, releases the timeout, and renders
// the -obs-dump metrics to stderr. Safe to call after a failed Start.
func (f *ObsFlags) Finish(stderr io.Writer) error {
	if f.cancel != nil {
		f.cancel()
	}
	if err := f.debug.Close(); err != nil {
		return err
	}
	if f.sink == nil || f.reg == nil {
		return nil
	}
	return f.sink.Write(stderr, f.reg.Gather())
}

// FollowFlags are the shared tail-follow options of every tool that can
// keep watching a growing trace.
type FollowFlags struct {
	// Follow enables tail-follow mode: the tool re-emits its analysis
	// after every poll that found appended events.
	Follow bool
	// Interval is the poll interval.
	Interval time.Duration
	// Polls bounds the number of polls; 0 means follow until
	// interrupted. Non-interactive callers (tests, one-shot scripts)
	// use it to terminate deterministically.
	Polls int
	// RetryAttempts and RetryBase shape the transient-I/O retry policy
	// of the follower: up to RetryAttempts tries per read/stat with
	// capped exponential backoff starting at RetryBase. Transient
	// failures retried this way are never charged against the
	// -max-errors corruption budget. RetryAttempts <= 1 disables
	// retrying.
	RetryAttempts int
	RetryBase     time.Duration
	// StoreDir, when non-empty, persists the followed trace into a
	// segment store as it grows: every committed sync block lands in a
	// trace segment before its events are consumed, and the compacted
	// state is refreshed after every emit, so a crash mid-follow leaves
	// a store that lockdocd -store-dir reopens without re-importing.
	StoreDir string
	// PushURL, when non-empty, mirrors the followed trace into a
	// running lockdocd at this base URL: the first committed sync-block
	// range replaces the target namespace's trace, every later range is
	// appended, so the daemon tracks the file block for block.
	PushURL string
	// PushNs is the lockdocd namespace -push uploads into; empty means
	// the default namespace (the legacy /v1/traces route).
	PushNs string
}

// Register installs the -follow, -interval, -follow-polls,
// -retry-attempts and -retry-base flags.
func (f *FollowFlags) Register(fl *flag.FlagSet) {
	fl.BoolVar(&f.Follow, "follow", false,
		"tail the growing trace file and refresh the analysis after each append (v2 traces only)")
	fl.DurationVar(&f.Interval, "interval", 500*time.Millisecond,
		"poll interval in -follow mode")
	fl.IntVar(&f.Polls, "follow-polls", 0,
		"stop -follow mode after this many polls (0 = run until interrupted)")
	fl.IntVar(&f.RetryAttempts, "retry-attempts", 4,
		"tries per transient I/O failure in -follow mode (1 = no retry); retries are not charged against -max-errors")
	fl.DurationVar(&f.RetryBase, "retry-base", 10*time.Millisecond,
		"initial backoff before a transient-I/O retry (doubles per retry, capped, jittered)")
	fl.StringVar(&f.StoreDir, "store-dir", "",
		"persist the followed trace and its compacted state into this segment store directory")
	fl.StringVar(&f.PushURL, "push", "",
		"mirror the followed trace into the lockdocd at this base URL (first commit replaces, later commits append)")
	fl.StringVar(&f.PushNs, "push-ns", "",
		"lockdocd namespace -push uploads into (empty = the default namespace)")
}

// Backoff converts the retry flags to a resilience policy.
func (f FollowFlags) Backoff(reg *obs.Registry) resilience.Backoff {
	return resilience.Backoff{
		Attempts: f.RetryAttempts,
		Base:     f.RetryBase,
		Max:      time.Second,
		Jitter:   0.5,
		Metrics:  resilience.NewMetrics(reg),
	}
}

// Follow tails the trace at path with the evaluation's filter
// configuration: each poll hands a reader over the bytes appended
// since the last one to one core.StreamDeriver's Consume, the ingest
// path of every other command, which decodes beside import, resumes
// transaction reconstruction from the live per-context state and folds
// in the corruption the poll commits. emit is called with a sealed
// snapshot, the derived rules and the window's streaming statistics —
// once after the initial read, then again after every poll that
// appended events. appended is the event count of the poll. The
// results are byte-identical to a batch import + DeriveAll of the
// file's current contents: each emit's pass re-mines only the groups
// the poll touched and answers the rest from the deriver's per-group
// cache, so stats.Delta.Remined reflects the groups the window
// actually touched.
// Follow returns when emit fails, the poll budget is exhausted, or ctx
// is cancelled (Main cancels it on SIGINT/SIGTERM, so -follow exits
// promptly, even mid-poll); like OpenDB-based commands it reports the
// corruption of the last emitted snapshot as *Recovered.
func Follow(ctx context.Context, path string, opts Options, ff FollowFlags, opt core.Options, emit func(view *db.DB, results []core.Result, stats core.StreamStats, appended int) error) error {
	ro := opts.Ingest.ReaderOptions()
	if opts.Obs != nil {
		ro.Metrics = trace.NewMetrics(opts.Obs)
	}
	fw, err := trace.NewFollower(path, ro)
	if err != nil {
		return err
	}
	defer fw.Close()
	fw.SetRetry(ff.Backoff(opts.Obs))
	var store *segstore.Store
	var sinks blockSinks
	if ff.StoreDir != "" {
		store, err = segstore.Open(ff.StoreDir, segstore.Options{Metrics: segstore.NewMetrics(opts.Obs)})
		if err != nil {
			return err
		}
		defer store.Close()
		// The follower re-reads the file from the start, so the first
		// commit replaces whatever trace a previous run left behind;
		// later commits extend it. Sink failures poison the follower,
		// which keeps the store a strict prefix of what was consumed.
		sinks = append(sinks, &followStoreSink{store: store})
	}
	if ff.PushURL != "" {
		c := apiclient.New(ff.PushURL, apiclient.WithBackoff(ff.Backoff(opts.Obs)))
		if ff.PushNs != "" {
			c = c.Namespace(ff.PushNs)
		}
		// Same replace-then-append protocol as the store sink, over HTTP:
		// a push failure (after the client's retries) poisons the
		// follower, so the daemon's copy stays a strict prefix too.
		sinks = append(sinks, &followPushSink{ctx: ctx, c: c})
	}
	switch len(sinks) {
	case 0:
	case 1:
		fw.SetSink(sinks[0])
	default:
		fw.SetSink(sinks)
	}
	sd := core.NewStreamDeriver(db.New(ImportConfig(opts)), opt)
	// A sealed view, unlike the live store, counts the transactions
	// still open, so the last one emitted reports what a batch run of
	// the same bytes would.
	last := sd.Live()

	for polls := 0; ; polls++ {
		n, err := fw.Poll(ctx, sd.Consume)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// Interrupted mid-poll: the uncommitted tail re-reads on
				// the next run; report what this run recovered from.
				return RecoveredFromDB(last)
			}
			return err
		}
		if n > 0 || polls == 0 {
			view, results, stats, err := sd.Derive(ctx)
			if err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return RecoveredFromDB(last)
				}
				return err
			}
			last = view
			if store != nil {
				// Refresh the compacted state before emitting so a crash
				// after this point reopens to the snapshot just served.
				if err := store.Compact(view); err != nil {
					return fmt.Errorf("compacting into %s: %w", ff.StoreDir, err)
				}
			}
			if err := emit(view, results, stats, n); err != nil {
				return err
			}
		}
		if ff.Polls > 0 && polls+1 >= ff.Polls {
			break
		}
		select {
		case <-ctx.Done():
			return RecoveredFromDB(last)
		case <-time.After(ff.Interval):
		}
	}
	return RecoveredFromDB(last)
}

// followStoreSink adapts a segment store to trace.BlockSink for the
// -follow -store-dir combination: the first committed range (which
// starts at byte 0 of the file, header included) resets the store's
// trace chain, every later range appends bare continuation blocks.
type followStoreSink struct {
	store *segstore.Store
	reset bool
}

func (k *followStoreSink) CommitBlocks(raw []byte) error {
	if !k.reset {
		k.reset = true
		return k.store.ResetTrace(raw)
	}
	return k.store.AppendTrace(raw)
}

// followPushSink mirrors committed sync-block ranges into a lockdocd
// over the typed API client: first commit replaces the namespace's
// trace, later commits append continuations.
type followPushSink struct {
	ctx   context.Context
	c     *apiclient.Client
	reset bool
}

func (k *followPushSink) CommitBlocks(raw []byte) error {
	if !k.reset {
		k.reset = true
		_, err := k.c.Upload(k.ctx, raw)
		return err
	}
	_, err := k.c.Append(k.ctx, raw)
	return err
}

// blockSinks fans one committed range out to several sinks in order,
// stopping at the first failure.
type blockSinks []trace.BlockSink

func (ks blockSinks) CommitBlocks(raw []byte) error {
	for _, k := range ks {
		if err := k.CommitBlocks(raw); err != nil {
			return err
		}
	}
	return nil
}

// CollectStats re-reads the trace for aggregate event statistics.
func CollectStats(path string) (trace.Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Stats{}, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return trace.Stats{}, err
	}
	return trace.Collect(r)
}
