package cli

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lockdoc/internal/apiclient"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/segstore"
	"lockdoc/internal/server"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.lkdc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.RunClockExample(w, 1, 200); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenDBRoundTrip(t *testing.T) {
	path := writeTrace(t)
	d, err := OpenDB(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.RawAccesses == 0 {
		t.Error("no accesses imported")
	}
	if _, ok := d.Group("clock", "", "minutes", true); !ok {
		t.Error("clock observations missing")
	}
}

func TestOpenDBNoFilter(t *testing.T) {
	path := writeTrace(t)
	d, err := OpenDB(path, Options{NoFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.FilteredAccesses != 0 {
		t.Errorf("nofilter import filtered %d accesses", d.FilteredAccesses)
	}
}

func TestOpenDBMissingFile(t *testing.T) {
	if _, err := OpenDB(filepath.Join(t.TempDir(), "nope"), Options{}); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestOpenDBCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad")
	if err := os.WriteFile(path, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDB(path, Options{}); err == nil {
		t.Error("expected error for corrupt file")
	}
}

// corruptTrace writes a clock trace and flips a bit inside one of its
// v2 block payloads (well past the header and first definitions).
func corruptTrace(t *testing.T) string {
	t.Helper()
	path := writeTrace(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[3*len(raw)/4] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenDBLenientRecovers(t *testing.T) {
	path := corruptTrace(t)
	if _, err := OpenDB(path, Options{}); err == nil {
		t.Fatal("strict OpenDB accepted a corrupt trace")
	}
	d, err := OpenDB(path, Options{Ingest: IngestFlags{Lenient: true, MaxErrors: 10}})
	if err != nil {
		t.Fatalf("lenient OpenDB: %v", err)
	}
	if len(d.Corruptions) == 0 {
		t.Error("lenient import reported no corruption")
	}
	rec := RecoveredFromDB(d)
	if rec == nil {
		t.Fatal("RecoveredFromDB = nil for a degraded import")
	}
	var r *Recovered
	if !errors.As(rec, &r) || len(r.Reports) == 0 {
		t.Fatalf("RecoveredFromDB = %v, want *Recovered with reports", rec)
	}
}

func TestRecoveredFromDBCleanIsNil(t *testing.T) {
	d, err := OpenDB(writeTrace(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec := RecoveredFromDB(d); rec != nil {
		t.Errorf("RecoveredFromDB = %v for a clean import", rec)
	}
}

// TestRunExitCodes pins the exit-code contract of the run() pattern.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"clean", nil, ExitClean},
		{"fatal", errors.New("boom"), ExitFatal},
		{"recovered", &Recovered{Dropped: 3}, ExitRecovered},
		{"usage", errBadFlags, ExitUsage},
	}
	for _, tc := range cases {
		var stderr bytes.Buffer
		fn := func(ctx context.Context, args []string, stdout, errw io.Writer) error { return tc.err }
		if got := Run(context.Background(), "tool", fn, nil, io.Discard, &stderr); got != tc.want {
			t.Errorf("%s: Run = %d, want %d", tc.name, got, tc.want)
		}
		if tc.want == ExitRecovered && !strings.Contains(stderr.String(), "recovered corruption") {
			t.Errorf("recovered run printed %q, want corruption summary", stderr.String())
		}
	}
	// Cancellation maps to ExitFatal with a terse diagnostic, not a
	// stack of wrapped errors.
	var stderr bytes.Buffer
	fn := func(ctx context.Context, args []string, stdout, errw io.Writer) error {
		return context.Canceled
	}
	if got := Run(context.Background(), "tool", fn, nil, io.Discard, &stderr); got != ExitFatal {
		t.Errorf("cancelled run: Run = %d, want %d", got, ExitFatal)
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("cancelled run printed %q, want interrupted", stderr.String())
	}
}

func TestFlagsParseErrorsMapToUsage(t *testing.T) {
	fn := func(ctx context.Context, args []string, stdout, errw io.Writer) error {
		fl := Flags("tool", errw)
		_ = fl.Bool("ok", false, "")
		if err := Parse(fl, args); err != nil {
			return err
		}
		return nil
	}
	if got := Run(context.Background(), "tool", fn, []string{"-definitely-not-a-flag"}, io.Discard, io.Discard); got != ExitUsage {
		t.Errorf("bad flag: Run = %d, want %d", got, ExitUsage)
	}
	if got := Run(context.Background(), "tool", fn, []string{"-h"}, io.Discard, io.Discard); got != ExitClean {
		t.Errorf("-h: Run = %d, want %d", got, ExitClean)
	}
}

func TestCollectStats(t *testing.T) {
	path := writeTrace(t)
	stats, err := CollectStats(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events == 0 || stats.LockOps == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestDeriveFlagsApply(t *testing.T) {
	fl := Flags("tool", io.Discard)
	var df DeriveFlags
	df.Register(fl)
	if err := Parse(fl, []string{"-j", "3"}); err != nil {
		t.Fatal(err)
	}
	opt := df.Apply(core.Options{AcceptThreshold: 0.8})
	if opt.Parallelism != 3 {
		t.Errorf("Parallelism = %d, want 3", opt.Parallelism)
	}
	if opt.AcceptThreshold != 0.8 {
		t.Errorf("Apply clobbered AcceptThreshold: %v", opt.AcceptThreshold)
	}
}

// TestObsFlagsDisabledByDefault: without -obs-dump or -debug-addr the
// registry stays nil, so pipeline instruments compile to no-ops.
func TestObsFlagsDisabledByDefault(t *testing.T) {
	fl := Flags("tool", io.Discard)
	var of ObsFlags
	of.Register(fl)
	if err := Parse(fl, nil); err != nil {
		t.Fatal(err)
	}
	if of.Registry() != nil {
		t.Error("Registry() non-nil without any metric consumer")
	}
	ctx, err := of.Start(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx.Deadline(); ok {
		t.Error("Start installed a deadline without -timeout")
	}
	var stderr bytes.Buffer
	if err := of.Finish(&stderr); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 {
		t.Errorf("Finish dumped %q without -obs-dump", stderr.String())
	}
}

func TestObsFlagsTimeoutAndDump(t *testing.T) {
	fl := Flags("tool", io.Discard)
	var of ObsFlags
	of.Register(fl)
	if err := Parse(fl, []string{"-timeout", "1h", "-obs-dump", "prom"}); err != nil {
		t.Fatal(err)
	}
	reg := of.Registry()
	if reg == nil {
		t.Fatal("Registry() nil with -obs-dump set")
	}
	reg.Counter("tool_probe_total", "test counter").Add(7)
	ctx, err := of.Start(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx.Deadline(); !ok {
		t.Error("-timeout did not install a deadline")
	}
	var stderr bytes.Buffer
	if err := of.Finish(&stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "tool_probe_total 7") {
		t.Errorf("-obs-dump=prom output missing counter:\n%s", stderr.String())
	}
}

func TestObsFlagsBadDumpFormat(t *testing.T) {
	of := ObsFlags{Dump: "xml"}
	if _, err := of.Start(context.Background(), io.Discard); err == nil {
		t.Error("Start accepted -obs-dump=xml")
	}
}

// TestObsFlagsDebugServer brings up -debug-addr on an ephemeral port
// and fetches /metrics and a pprof profile through it.
func TestObsFlagsDebugServer(t *testing.T) {
	of := ObsFlags{Dump: "none", DebugAddr: "127.0.0.1:0"}
	of.Registry().Counter("tool_probe_total", "test counter").Inc()
	var stderr bytes.Buffer
	if _, err := of.Start(context.Background(), &stderr); err != nil {
		t.Fatal(err)
	}
	defer of.Finish(io.Discard)
	if !strings.Contains(stderr.String(), "debug listener on http://") {
		t.Errorf("Start did not log the debug address: %q", stderr.String())
	}
	addr := of.debug.Addr
	for _, path := range []string{"/metrics", "/debug/pprof/cmdline"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// TestFollowStoreDir follows a growing trace with a segment store
// attached: the initial read must reset the store's trace chain, the
// appended tail must extend it, and after the follow loop ends the
// store must reopen — without the original file — to the compacted
// state that the last emit served.
func TestFollowStoreDir(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2, SyncInterval: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.RunClockExample(w, 1, 400); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	needle := []byte{0xFF, 'L', 'K', 'S', 'Y'}
	var offs []int
	for i := 0; i+len(needle) <= len(raw); i++ {
		if bytes.Equal(raw[i:i+len(needle)], needle) {
			offs = append(offs, i)
		}
	}
	if len(offs) < 3 {
		t.Fatalf("fixture has %d sync blocks, want >= 3", len(offs))
	}
	cut := offs[2] // block boundary: first two blocks complete

	path := filepath.Join(t.TempDir(), "trace.lkdc")
	if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(t.TempDir(), "store")

	errStop := errors.New("done following")
	var want bytes.Buffer
	grown := false
	err = Follow(context.Background(), path, Options{},
		FollowFlags{Interval: time.Millisecond, StoreDir: storeDir}, core.Options{},
		func(view *db.DB, results []core.Result, stats core.StreamStats, appended int) error {
			if !grown {
				grown = true
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					return err
				}
				if _, err := f.Write(raw[cut:]); err != nil {
					return err
				}
				return f.Close()
			}
			if err := view.ExportObservationsCSV(&want); err != nil {
				return err
			}
			return errStop
		})
	if !errors.Is(err, errStop) {
		t.Fatalf("Follow returned %v, want the stop sentinel", err)
	}
	if want.Len() == 0 {
		t.Fatal("second emit captured no observations")
	}

	// Reopen the store alone: the compacted state must reproduce the
	// last emitted snapshot byte for byte.
	store, err := segstore.Open(storeDir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	d, ok, err := store.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("store has no compacted state after follow")
	}
	var got bytes.Buffer
	if err := d.ExportObservationsCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("store-backed CSV (%d bytes) differs from followed snapshot (%d bytes)", got.Len(), want.Len())
	}

	// And the trace chain must hold the whole file: replaying it gives
	// the same events as reading the original.
	r := trace.NewContinuationReader(store.TraceReader(), trace.ReaderOptions{})
	evs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	fevs, err := fr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(fevs) {
		t.Fatalf("store trace replays %d events, file has %d", len(evs), len(fevs))
	}
}

// TestFollowCancelled pins the prompt-exit contract: cancelling the
// context from inside the emit callback ends the follow loop cleanly
// instead of waiting out the poll interval or spinning forever.
func TestFollowCancelled(t *testing.T) {
	path := writeTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emits := 0
	done := make(chan error, 1)
	go func() {
		done <- Follow(ctx, path, Options{}, FollowFlags{Interval: time.Millisecond}, core.Options{},
			func(view *db.DB, results []core.Result, stats core.StreamStats, appended int) error {
				emits++
				cancel()
				return nil
			})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cancelled Follow returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Follow did not exit after cancellation")
	}
	if emits != 1 {
		t.Errorf("emit ran %d times, want 1", emits)
	}
}

// TestFollowPush follows a growing trace with -push attached: the
// initial read must land in the target lockdocd namespace as a replace,
// the appended tail as an append, and when the loop ends the daemon's
// namespace must serve a document identical to one built from a direct
// upload of the whole file.
func TestFollowPush(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2, SyncInterval: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.RunClockExample(w, 1, 400); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	needle := []byte{0xFF, 'L', 'K', 'S', 'Y'}
	var offs []int
	for i := 0; i+len(needle) <= len(raw); i++ {
		if bytes.Equal(raw[i:i+len(needle)], needle) {
			offs = append(offs, i)
		}
	}
	if len(offs) < 3 {
		t.Fatalf("fixture has %d sync blocks, want >= 3", len(offs))
	}
	cut := offs[2]

	path := filepath.Join(t.TempDir(), "trace.lkdc")
	if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()

	errStop := errors.New("done following")
	grown := false
	err = Follow(ctx, path, Options{},
		FollowFlags{Interval: time.Millisecond, PushURL: ts.URL, PushNs: "mirror"}, core.Options{},
		func(view *db.DB, results []core.Result, stats core.StreamStats, appended int) error {
			if !grown {
				grown = true
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					return err
				}
				if _, err := f.Write(raw[cut:]); err != nil {
					return err
				}
				return f.Close()
			}
			return errStop
		})
	if !errors.Is(err, errStop) {
		t.Fatalf("Follow returned %v, want the stop sentinel", err)
	}

	c := apiclient.New(ts.URL)
	info, err := c.NamespaceInfo(ctx, "mirror")
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation < 2 {
		t.Fatalf("mirror namespace generation = %d, want a replace plus >= 1 append", info.Generation)
	}

	// An oracle fed the whole file in one upload must serve the same
	// document the mirrored namespace does. The daemon imports with its
	// own filter configuration, so the oracle goes through the same API.
	oracle := server.New(server.Config{})
	ot := httptest.NewServer(oracle.Handler())
	defer ot.Close()
	oc := apiclient.New(ot.URL)
	if _, err := oc.Upload(ctx, raw); err != nil {
		t.Fatal(err)
	}
	want, err := oc.Doc(ctx, "clock")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Namespace("mirror").Doc(ctx, "clock")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("pushed namespace document diverges from direct upload:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
