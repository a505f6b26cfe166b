// The differential oracle: every path to a result must reproduce the
// batch pass, db.Import and a sequential DeriveAll, byte for byte.
// DESIGN.md §17 lists the inputs and paths and says how to add one;
// scripts/mutate.sh checks that it kills the mutants in scripts/mutants.
package lockdoc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"lockdoc/internal/analysis"
	"lockdoc/internal/cli"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/fs"
	"lockdoc/internal/server"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

// defaultOptions are the options of lockdocd and of every split path.
var defaultOptions = core.Options{AcceptThreshold: core.DefaultAcceptThreshold}

// oracleOptions are the option sets DeriveAll runs under.
var oracleOptions = []core.Options{
	{},
	defaultOptions,
	{AcceptThreshold: 0.75, CutoffThreshold: 0.1},
	{AcceptThreshold: 0.9, MaxLocks: 2},
	{AcceptThreshold: 0.9, Naive: true},
}

// oracleQueries are lockdocd's /rules query strings for the
// non-default oracleOptions sets.
var oracleQueries = map[string]core.Options{
	"tac=0.75&tco=0.1": {AcceptThreshold: 0.75, CutoffThreshold: 0.1},
	"max_locks=2":      {AcceptThreshold: 0.9, MaxLocks: 2},
	"naive=true":       {AcceptThreshold: 0.9, Naive: true},
}

// outputs holds what one path renders, by output name.
type outputs map[string]string

// reference is the batch pass over one input, cut after its first access
// at sync markers (blocks) and at event indices (pieces, re-encoded).
type reference struct {
	raw            []byte // a headered v2 trace
	events         int
	d              *db.DB
	outs           map[string]outputs // by option key
	blocks, pieces [][]byte
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func newReference(t testing.TB, raw []byte, seed int64) *reference {
	t.Helper()
	// db.Import's three steps, which keep Consume's event count.
	d := db.New(fs.DefaultConfig())
	n, err := d.Consume(chunkReader(t, raw))
	must(t, err)
	d.Flush()
	ref := &reference{raw: raw, events: n, d: d, outs: map[string]outputs{}}
	for _, opt := range oracleOptions {
		opt.Parallelism = 1
		results, err := core.DeriveAll(context.Background(), d, opt)
		must(t, err)
		ref.outs[opt.Key()] = render(t, d, results)
	}

	access, accessEnd := -1, int64(0) // the first access, and its sync block's end
	r := chunkReader(t, raw)
	for i, ev := 0, (trace.Event{}); access < 0 && r.Read(&ev) == nil; i++ {
		if ev.Kind == trace.KindRead || ev.Kind == trace.KindWrite {
			access, accessEnd = i, r.LastBlockEnd()
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var marks []int
	for off, i := 0, 0; i >= 0; off += i + 1 {
		if i = bytes.Index(raw[off:], []byte{0xFF, 'L', 'K', 'S', 'Y'}); i >= 0 && int64(off+i) >= accessEnd {
			marks = append(marks, off+i)
		}
	}
	prev := 0
	for _, i := range pick(rng, 0, len(marks)) {
		ref.blocks, prev = append(ref.blocks, raw[prev:marks[i]]), marks[i]
	}
	ref.blocks = append(ref.blocks, raw[prev:])
	r, prev = chunkReader(t, raw), 0
	for _, k := range append(pick(rng, access+1, n), n) {
		ref.pieces, prev = append(ref.pieces, writeTrace(t, 32+rng.Intn(96), k-prev, r.Read)), k
	}
	return ref
}

// pick returns 1–4 distinct sorted values drawn from [lo, hi), if any.
func pick(rng *rand.Rand, lo, hi int) (cuts []int) {
	for k := 1 + rng.Intn(4); k > 0 && lo < hi; k-- {
		cuts = append(cuts, lo+rng.Intn(hi-lo))
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// chunkReader reads a headered trace or a bare block continuation.
func chunkReader(t testing.TB, c []byte) *trace.Reader {
	t.Helper()
	if !trace.HasHeader(c) {
		return trace.NewContinuationReader(bytes.NewReader(c), trace.ReaderOptions{})
	}
	r, err := trace.NewReader(bytes.NewReader(c))
	must(t, err)
	return r
}

// writeTrace encodes n events that read fills in as a v2 trace.
func writeTrace(t testing.TB, syncInterval, n int, read func(*trace.Event) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2, SyncInterval: syncInterval})
	must(t, err)
	for ev := (trace.Event{}); n > 0; n-- {
		must(t, read(&ev))
		must(t, w.Write(&ev))
	}
	must(t, w.Flush())
	return buf.Bytes()
}

// render renders every output. The store fingerprint's observation
// table orders a group's rows by signature, so it shows the lock-key
// interning order; its summaries carry the counters.
func render(t testing.TB, d *db.DB, results []core.Result) outputs {
	t.Helper()
	var doc, viol strings.Builder
	for _, label := range d.TypeLabels() {
		doc.WriteString(analysis.GenerateDoc(d, results, label))
	}
	for _, s := range analysis.SummarizeViolations(d, analysis.FindViolations(d, results)) {
		fmt.Fprintf(&viol, "%s events=%d members=%d contexts=%d\n", s.TypeLabel, s.Events, s.Members, s.Contexts)
	}
	checks, err := analysis.CheckAll(d, fs.DocumentedRules())
	must(t, err)
	var c, fp bytes.Buffer
	must(t, analysis.WriteChecksJSON(&c, checks))
	must(t, d.ExportObservationsCSV(&fp))
	must(t, d.ExportLocksCSV(&fp))
	fmt.Fprintf(&fp, "%s\n%s\nopen at EOF: %d\n", d.Summary(), d.DegradedSummary(), d.OpenAtEOF)
	return outputs{"doc": doc.String(), "rules": rulesJSON(t, d, results), "violations": viol.String(),
		"checks": c.String(), "store": fp.String()}
}

// rulesJSON renders the rules with hypotheses: all the results hold.
func rulesJSON(t testing.TB, d *db.DB, results []core.Result) string {
	var b bytes.Buffer
	must(t, analysis.WriteRulesJSON(&b, d, results, true))
	return b.String()
}

// envelope wraps a rendered JSON payload the way lockdocd's /v1 routes
// do.
func envelope(t testing.TB, payload string) string {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	must(t, enc.Encode(map[string]any{"data": json.RawMessage(payload)}))
	return b.String()
}

// sameOutputs requires each output of got to equal want's.
func sameOutputs(t testing.TB, path string, want, got outputs) {
	t.Helper()
	for name, g := range got {
		if w, i := want[name], 0; g != w {
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Errorf("%s: %s differs from the batch reference at byte %d:\n got %.120q\nwant %.120q", path, name, i, g[i:], w[i:])
		}
	}
}

// checkLibraryPaths runs DeriveAll and the stream deriver.
func checkLibraryPaths(t testing.TB, ref *reference) {
	t.Helper()
	for _, opt := range oracleOptions {
		for _, workers := range []int{0, 2, 3, 8} {
			opt.Parallelism = workers
			results, err := core.DeriveAll(context.Background(), ref.d, opt)
			must(t, err)
			path, want := fmt.Sprintf("DeriveAll %s at %d workers", opt.Key(), workers), ref.outs[opt.Key()]["rules"]
			sameOutputs(t, path, outputs{"rules": want}, outputs{"rules": rulesJSON(t, ref.d, results)})
		}
	}
	stream(t, ref, "stream over sync-marker chunks", ref.blocks, 1, true)
	stream(t, ref, "stream over event-index chunks", ref.pieces, 2, true)
	stream(t, ref, "stream in one window", ref.blocks, 0, false)
}

// stream feeds the chunks through one StreamDeriver, deriving after
// every chunk (perChunk) or once after the last.
func stream(t testing.TB, ref *reference, path string, chunks [][]byte, workers int, perChunk bool) {
	t.Helper()
	opt := defaultOptions
	opt.Parallelism = workers
	sd := core.NewStreamDeriver(db.New(fs.DefaultConfig()), opt)
	var view *db.DB
	var results []core.Result
	window, events := 0, 0
	for i, c := range chunks {
		n, err := sd.Consume(chunkReader(t, c))
		must(t, err)
		if window += n; !perChunk && i < len(chunks)-1 {
			continue
		}
		var stats core.StreamStats
		view, results, stats, err = sd.Derive(context.Background())
		must(t, err)
		// The first window is one full pass: nothing is cached yet.
		if d := stats.Delta; stats.Events != window || events == 0 && (d.Reused != 0 || d.Remined != d.Groups) {
			t.Errorf("%s: the window ending at chunk %d has %+v, want %d events and, if first, every group mined", path, i, stats, window)
		}
		events, window = events+window, 0
	}
	if events != ref.events {
		t.Errorf("%s: %d events in all windows, want %d", path, events, ref.events)
	}
	sameOutputs(t, path, ref.outs[defaultOptions.Key()], render(t, view, results))
}

// checkFollow follows a file that grows by one block per emit.
func checkFollow(t *testing.T, ref *reference) {
	path := filepath.Join(t.TempDir(), "trace.lkdc")
	must(t, os.WriteFile(path, ref.blocks[0], 0o644))
	emits, size := 0, len(ref.blocks[0])
	err := cli.Follow(context.Background(), path, cli.Options{},
		cli.FollowFlags{Interval: time.Millisecond, Polls: len(ref.blocks)}, defaultOptions,
		func(view *db.DB, results []core.Result, _ core.StreamStats, _ int) error {
			if emits++; emits == len(ref.blocks) {
				sameOutputs(t, "follow", ref.outs[defaultOptions.Key()], render(t, view, results))
				return nil
			}
			size += len(ref.blocks[emits])
			return os.WriteFile(path, ref.raw[:size], 0o644)
		})
	if err != nil || emits != len(ref.blocks) {
		t.Fatalf("follow: %d emits for %d chunks, err %v", emits, len(ref.blocks), err)
	}
}

// serve answers one request in process and requires the given status.
func serve(t testing.TB, h http.Handler, method, target string, body []byte, status int) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	if rec.Code != status {
		t.Fatalf("%s %s: status %d, want %d: %s", method, target, rec.Code, status, rec.Body.String())
	}
	return rec
}

// post sends each chunk to target, one request each.
func post(t testing.TB, h http.Handler, target string, chunks ...[]byte) {
	t.Helper()
	for _, c := range chunks {
		serve(t, h, "POST", target, c, http.StatusCreated)
	}
}

// bodies reads the compared endpoints of a namespace, the rules under
// each of oracleQueries too.
func bodies(t testing.TB, h http.Handler, prefix string, labels []string) outputs {
	t.Helper()
	get := func(target string) string { return serve(t, h, "GET", prefix+target, nil, http.StatusOK).Body.String() }
	var doc strings.Builder
	for _, label := range labels {
		doc.WriteString(get("/doc?type=" + url.QueryEscape(label)))
	}
	out := outputs{"doc": doc.String(), "rules": get("/rules?hypotheses=true"), "default rules": get("/rules"),
		"violations": get("/violations?summary=true"), "checks": get("/checks")}
	for q := range oracleQueries {
		out["rules?"+q] = get("/rules?hypotheses=true&" + q)
	}
	return out
}

// checkServer requires the bodies of a lockdocd given the whole trace,
// whose docs and rules must be the library's, from one given uploaded
// blocks.
func checkServer(t testing.TB, ref *reference) outputs {
	t.Helper()
	h := server.New(server.Config{}).Handler()
	post(t, h, "/v1/ns/ref/traces", ref.raw)
	want := bodies(t, h, "/v1/ns/ref", ref.d.TypeLabels())
	def := ref.outs[defaultOptions.Key()]
	lib, got := outputs{"doc": def["doc"], "rules": envelope(t, def["rules"])}, outputs{"doc": want["doc"], "rules": want["rules"]}
	for q, opt := range oracleQueries {
		lib["rules?"+q], got["rules?"+q] = envelope(t, ref.outs[opt.Key()]["rules"]), want["rules?"+q]
	}
	sameOutputs(t, "lockdocd upload", lib, got)

	h = server.New(server.Config{}).Handler()
	post(t, h, "/v1/traces", ref.blocks[0])
	bodies(t, h, "/v1/ns/default", nil) // memoized by the first snapshot, which the appends replace
	post(t, h, "/v1/ns/default/traces?mode=append", ref.blocks[1:]...)
	sameOutputs(t, "lockdocd append", want, bodies(t, h, "/v1/ns/default", ref.d.TypeLabels()))
	// The legacy aliases answer for the default namespace, deprecated.
	sameOutputs(t, "lockdocd legacy alias", want, bodies(t, h, "/v1", ref.d.TypeLabels()))
	legacy := serve(t, h, "GET", "/v1/rules?hypotheses=true", nil, http.StatusOK)
	if hdr := legacy.Header(); hdr.Get("Deprecation") != "true" || hdr.Get("Link") != `</v1/ns/default/rules>; rel="successor-version"` {
		t.Errorf("legacy /v1/rules: Deprecation %q, Link %q", hdr.Get("Deprecation"), hdr.Get("Link"))
	}
	return want
}

// checkStore runs lockdocd over a store root. Namespace a takes the
// pieces, b all blocks but the last; the budget holds only a's bytes,
// so b's upload evicts a, which reopens from the state compaction
// copied forward. After a restart b's first append replays its chain.
func checkStore(t *testing.T, ref *reference, want outputs) {
	root, a, b := t.TempDir(), ref.pieces, ref.blocks
	info := func(h http.Handler, name string) (ns struct{ Data map[string]any }) {
		must(t, json.Unmarshal(serve(t, h, "GET", "/v1/ns/"+name, nil, http.StatusOK).Body.Bytes(), &ns))
		return ns
	}
	h := server.New(server.Config{StoreRoot: root, MemBudgetBytes: int64(len(bytes.Join(a, nil)))}).Handler()
	post(t, h, "/v1/ns/a/traces", a[0])
	post(t, h, "/v1/ns/a/traces?mode=append", a[1:]...)
	post(t, h, "/v1/ns/b/traces", b[0])
	if info(h, "a").Data["evicted"] != true {
		t.Fatal("uploading b did not evict a under the memory budget")
	}
	sameOutputs(t, "lockdocd reopened after eviction", want, bodies(t, h, "/v1/ns/a", ref.d.TypeLabels()))
	post(t, h, "/v1/ns/b/traces?mode=append", b[1:len(b)-1]...)

	// The restart resumes a from its state at its trace segment count.
	srv := server.New(server.Config{StoreRoot: root})
	if n, err := srv.OpenStores(); err != nil || n != 2 {
		t.Fatalf("OpenStores = %d, %v; want both namespaces serving", n, err)
	}
	h = srv.Handler()
	if ia := info(h, "a").Data; ia["generation"] != float64(len(a)) || !strings.HasPrefix(ia["source"].(string), "store:") {
		t.Errorf("reopened a: %v, want generation %d from store:", ia, len(a))
	}
	sameOutputs(t, "lockdocd restarted", want, bodies(t, h, "/v1/ns/a", ref.d.TypeLabels()))
	post(t, h, "/v1/ns/b/traces?mode=append", b[len(b)-1])
	sameOutputs(t, "lockdocd first append after restart", want, bodies(t, h, "/v1/ns/b", ref.d.TypeLabels()))
}

// fuzzOpsEvents builds an op string's events: a prelude of types alpha
// (a, b) and beta (x), an allocation of each, eight locks and eight
// contexts, then per byte a read, write, acquire or release (bits 0–1)
// of a lock or member (2–4; alpha.a, alpha.b, beta.x by value mod 3) in
// a context (5–7). Any byte is valid, so op strings reach states the
// simulated kernel never does, such as release without acquire.
func fuzzOpsEvents(ops []byte) []trace.Event {
	evs := []trace.Event{
		{Kind: trace.KindDefType, TypeID: 1, TypeName: "alpha", Members: []trace.MemberDef{{Name: "a", Size: 8}, {Name: "b", Offset: 8, Size: 8}}},
		{Kind: trace.KindDefType, TypeID: 2, TypeName: "beta", Members: []trace.MemberDef{{Name: "x", Size: 8}}},
		{Kind: trace.KindDefFunc, FuncID: 1, File: "f.c", Line: 1, Func: "fn"},
		{Kind: trace.KindAlloc, AllocID: 1, TypeID: 1, Addr: 0x1000, Size: 16},
		{Kind: trace.KindAlloc, AllocID: 2, TypeID: 2, Addr: 0x2000, Size: 8},
	}
	for i := range 8 {
		evs = append(evs,
			trace.Event{Kind: trace.KindDefLock, LockID: uint64(i + 1), LockName: fmt.Sprint("l", i+1),
				Class: trace.LockClass(i % 2), LockAddr: 0x100 * uint64(i+1)},
			trace.Event{Kind: trace.KindDefCtx, CtxID: uint32(i + 1), CtxKind: trace.CtxKind(i % 2), CtxName: fmt.Sprint("ctx/", i+1)})
	}
	for _, b := range ops {
		ev := trace.Event{Ctx: 1 + uint32(b>>5), FuncID: 1, LockID: 1 + uint64(b>>2)&7}
		ev.Kind = [...]trace.Kind{trace.KindRead, trace.KindWrite, trace.KindAcquire, trace.KindRelease}[b&3]
		if b&3 < 2 {
			ev.LockID, ev.Addr, ev.AccessSize = 0, [...]uint64{0x1000, 0x1008, 0x2000}[(b>>2)&7%3], 8
		}
		evs = append(evs, ev)
	}
	for i := range evs {
		evs[i].Seq, evs[i].TS = uint64(i+1), uint64(i+1)
	}
	return evs
}

func opsTrace(t testing.TB, ops []byte) []byte {
	evs := fuzzOpsEvents(ops)
	return writeTrace(t, 32, len(evs), func(ev *trace.Event) error {
		*ev, evs = evs[0], evs[1:]
		return nil
	})
}

func TestOracle(t *testing.T) {
	traces := map[string][]byte{"clock": clockV2Trace(t), "blk": blkV2Trace(t)}
	genomes, err := workload.LoadCorpus(filepath.Join("internal", "workload", "testdata", "corpus"))
	must(t, err)
	for _, g := range genomes {
		var buf bytes.Buffer
		w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2})
		must(t, err)
		_, err = workload.RunGenome(w, g)
		must(t, err)
		traces["genome-"+strings.TrimSuffix(g.Filename(), workload.GenomeExt)] = buf.Bytes()
	}
	// A body over locks 1–4, then each context acquires (2) one of locks
	// 5–8 and writes (1) alpha.a: the fold of the eight transactions open
	// at the end interns four new keys in context order.
	ops := make([]byte, 600)
	rand.New(rand.NewSource(7)).Read(ops)
	for i := range ops {
		ops[i] &^= 1 << 4
	}
	for c := range byte(8) {
		ops = append(ops, c<<5|(4+c%4)<<2|2, c<<5|1)
	}
	traces["ops"] = opsTrace(t, ops)

	for name, raw := range traces {
		t.Run(name, func(t *testing.T) {
			ref := newReference(t, raw, 1)
			checkLibraryPaths(t, ref)
			checkFollow(t, ref)
			checkStore(t, ref, checkServer(t, ref))
		})
	}
}

func FuzzOracle(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint64(3))
	f.Add(bytes.Repeat([]byte{3, 0, 1, 4, 9, 2, 10, 16}, 40), uint64(100))
	f.Add([]byte{4, 4, 3, 3, 1, 0, 4, 4, 2, 5}, uint64(7))
	f.Fuzz(func(t *testing.T, ops []byte, seed uint64) {
		if len(ops) > 4096 {
			t.Skip("cap workload size")
		}
		ref := newReference(t, opsTrace(t, ops), int64(seed))
		checkLibraryPaths(t, ref)
		if ref.d.RawAccesses > 0 { // lockdocd refuses a trace without accesses
			checkServer(t, ref)
		}
	})
}
