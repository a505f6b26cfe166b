// Differential harness for incremental ingestion and delta derivation.
//
// The property under test: consuming a trace in chunks — resuming
// transaction reconstruction from the live store's per-context state
// instead of replaying from offset 0 — followed by Seal and a
// DeltaDeriver pass must produce output byte-identical to importing the
// whole trace in one batch and mining every group from scratch. The
// comparison is cross-store, so it deliberately re-renders every lock
// sequence (SeqString) AND compares the raw interned signatures: the
// latter only match if the two stores interned lock keys in the exact
// same order, pinning the determinism Seal's equivalence argument
// rests on.
//
// Splits are exercised at three granularities: every v2 sync-marker
// boundary (the unit the tail follower commits at), randomized event
// boundaries (which cut transactions in half, forcing the resumed
// reconstructor to finish a transaction the first chunk opened), and
// fuzzer-chosen workloads with fuzzer-chosen split points.
package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"lockdoc/internal/db"
	"lockdoc/internal/trace"
)

// mustDeriveAll is the batch-derivation oracle: a full sequential
// derivation with an uncancellable context, which can never error.
func mustDeriveAll(tb testing.TB, d *db.DB, opt Options) []Result {
	tb.Helper()
	out, err := DeriveAll(context.Background(), d, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// syncNeedle is the byte pattern of a v2 sync marker: the 0xFF escape
// followed by the "LKSY" magic.
var syncNeedle = []byte{0xFF, 'L', 'K', 'S', 'Y'}

// syntheticTraceV2 builds a deterministic mixed workload — structured
// critical-section rounds interleaved with pseudo-random op soup across
// two contexts — and encodes it as a v2 trace with the given sync
// interval (small intervals yield many split points). The workload
// package itself can't be used here: it transitively imports core, and
// an in-package test may not close that cycle.
func syntheticTraceV2(tb testing.TB, seed int64, nOps, syncInterval int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	var s evStream
	s.twoTypePrelude()
	s.add(trace.Event{Kind: trace.KindDefCtx, CtxID: 2, CtxKind: trace.CtxSoftIRQ, CtxName: "softirq/0"})
	for len(s.evs) < nOps {
		switch rng.Intn(4) {
		case 0:
			s.alphaRound()
		case 1:
			s.betaRound()
		default:
			s.op(byte(rng.Intn(256)))
		}
	}
	return encodeEvents(tb, s.evs, syncInterval)
}

// syncMarkerOffsets returns every byte offset at which a sync marker
// (and hence a block) begins. Each is a valid chunk boundary: the
// prefix ends on a complete block and the suffix starts on one.
func syncMarkerOffsets(data []byte) []int64 {
	var offs []int64
	for from := 0; ; {
		i := bytes.Index(data[from:], syncNeedle)
		if i < 0 {
			return offs
		}
		offs = append(offs, int64(from+i))
		from += i + 1
	}
}

// readAllEvents decodes the whole trace into memory.
func readAllEvents(tb testing.TB, data []byte) []trace.Event {
	tb.Helper()
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		tb.Fatalf("NewReader: %v", err)
	}
	evs, err := r.ReadAll()
	if err != nil {
		tb.Fatalf("ReadAll: %v", err)
	}
	return evs
}

// encodeEvents re-encodes a slice of decoded events as a standalone
// headered v2 trace.
func encodeEvents(tb testing.TB, evs []trace.Event, syncInterval int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2, SyncInterval: syncInterval})
	if err != nil {
		tb.Fatalf("NewWriterOptions: %v", err)
	}
	for i := range evs {
		if err := w.Write(&evs[i]); err != nil {
			tb.Fatalf("Write event %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// batchImport is the oracle: one-shot import of the full trace.
func batchImport(tb testing.TB, data []byte) *db.DB {
	tb.Helper()
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		tb.Fatalf("NewReader: %v", err)
	}
	d, err := db.Import(r, db.Config{})
	if err != nil {
		tb.Fatalf("Import: %v", err)
	}
	return d
}

// replayIncremental feeds the chunks one after another into a single
// live store — headered chunks through a fresh Reader, bare block
// streams through a continuation reader — sealing and delta-deriving
// after every append so the DeltaDeriver's cache is exercised at each
// step, exactly like the follow-mode CLIs and the server append path.
// It returns the final sealed view, the final delta results and the
// stats of the last pass.
func replayIncremental(tb testing.TB, chunks [][]byte, opt Options) (*db.DB, []Result, DeltaStats) {
	tb.Helper()
	live := db.New(db.Config{})
	dd := NewDeltaDeriver(opt)
	var (
		view    *db.DB
		results []Result
		stats   DeltaStats
	)
	for i, c := range chunks {
		var r *trace.Reader
		if i == 0 || trace.HasHeader(c) {
			var err error
			if r, err = trace.NewReader(bytes.NewReader(c)); err != nil {
				tb.Fatalf("chunk %d: NewReader: %v", i, err)
			}
		} else {
			r = trace.NewContinuationReader(bytes.NewReader(c), trace.ReaderOptions{})
		}
		if _, err := live.Consume(r); err != nil {
			tb.Fatalf("chunk %d: Consume: %v", i, err)
		}
		view = live.Seal()
		results, stats, _ = dd.DeriveAll(context.Background(), view)
	}
	return view, results, stats
}

// winnerRank locates Result.Winner in the report order of its
// hypotheses, so winners can be compared across stores without
// comparing pointers.
func winnerRank(r *Result, ranked []*Hypothesis) int {
	if r.Winner == nil {
		return -1
	}
	for j, h := range ranked {
		if h == r.Winner {
			return j
		}
	}
	return -2 // dangling winner: always a bug
}

// assertSameDerivation compares two derivation outputs that come from
// different stores, field by field, hypotheses in report order
// (Ranked). Sr is compared with ==: the incremental path must
// reproduce the batch division bit for bit, not approximately.
func assertSameDerivation(tb testing.TB, label string, wantDB *db.DB, want []Result, gotDB *db.DB, got []Result) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		id := fmt.Sprintf("%s: group %d (%s %s %s)", label, i, w.Group.TypeLabel(), w.Group.MemberName(), w.Group.AccessType())
		if g.Group.TypeLabel() != w.Group.TypeLabel() ||
			g.Group.MemberName() != w.Group.MemberName() ||
			g.Group.AccessType() != w.Group.AccessType() {
			tb.Fatalf("%s: got group (%s %s %s)", id, g.Group.TypeLabel(), g.Group.MemberName(), g.Group.AccessType())
		}
		if g.Total != w.Total {
			tb.Fatalf("%s: total %d, want %d", id, g.Total, w.Total)
		}
		if len(g.Hypotheses) != len(w.Hypotheses) {
			tb.Fatalf("%s: %d hypotheses, want %d", id, len(g.Hypotheses), len(w.Hypotheses))
		}
		wr, gr := Ranked(w.Hypotheses), Ranked(g.Hypotheses)
		for j := range wr {
			hw, hg := wr[j], gr[j]
			if hg.Sa != hw.Sa || hg.Sr != hw.Sr {
				tb.Fatalf("%s: hypothesis %d: sa=%d sr=%v, want sa=%d sr=%v", id, j, hg.Sa, hg.Sr, hw.Sa, hw.Sr)
			}
			if ws, gs := wantDB.SeqString(hw.Seq), gotDB.SeqString(hg.Seq); gs != ws {
				tb.Fatalf("%s: hypothesis %d: seq %q, want %q", id, j, gs, ws)
			}
			// Raw interned signatures only agree if both stores
			// assigned lock-key IDs in the same order.
			if ws, gs := hw.Seq.Signature(), hg.Seq.Signature(); gs != ws {
				tb.Fatalf("%s: hypothesis %d: signature %q, want %q (interning order diverged)", id, j, gs, ws)
			}
		}
		if wi, gi := winnerRank(w, wr), winnerRank(g, gr); gi != wi {
			tb.Fatalf("%s: winner rank %d, want %d", id, gi, wi)
		}
		if g.Reason != w.Reason {
			tb.Fatalf("%s: reason %v, want %v", id, g.Reason, w.Reason)
		}
	}
}

// TestIncrementalMatchesBatchAtEverySyncBoundary splits the clock trace
// at every v2 sync-marker boundary — the exact boundaries the tail
// follower commits at — and checks prefix-then-append equals batch.
func TestIncrementalMatchesBatchAtEverySyncBoundary(t *testing.T) {
	data := syntheticTraceV2(t, 7, 3000, 64)
	offs := syncMarkerOffsets(data)
	if len(offs) < 8 {
		t.Fatalf("only %d sync markers in %d bytes; sync interval too large for a meaningful sweep", len(offs), len(data))
	}
	opt := Options{AcceptThreshold: 0.9}
	batch := batchImport(t, data)
	want := mustDeriveAll(t, batch, opt)
	for _, off := range offs {
		view, got, _ := replayIncremental(t, [][]byte{data[:off], data[off:]}, opt)
		assertSameDerivation(t, fmt.Sprintf("split@%d", off), batch, want, view, got)
	}
}

// TestIncrementalMatchesBatchAtRandomEventBoundaries cuts the decoded
// event stream at random indices — including mid-transaction, where the
// resumed reconstructor must complete a critical section the previous
// chunk opened — and re-encodes each piece as its own trace. Multi-way
// splits exercise repeated appends against one live store.
func TestIncrementalMatchesBatchAtRandomEventBoundaries(t *testing.T) {
	data := syntheticTraceV2(t, 11, 2500, trace.DefaultSyncInterval)
	evs := readAllEvents(t, data)
	opt := Options{AcceptThreshold: 0.9}
	batch := batchImport(t, data)
	want := mustDeriveAll(t, batch, opt)

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		nCuts := 1 + rng.Intn(3)
		cuts := make(map[int]bool, nCuts)
		for len(cuts) < nCuts {
			cuts[rng.Intn(len(evs)+1)] = true
		}
		var chunks [][]byte
		prev := 0
		for k := 0; k <= len(evs); k++ {
			if cuts[k] {
				chunks = append(chunks, encodeEvents(t, evs[prev:k], 128))
				prev = k
			}
		}
		chunks = append(chunks, encodeEvents(t, evs[prev:], 128))
		view, got, _ := replayIncremental(t, chunks, opt)
		assertSameDerivation(t, fmt.Sprintf("trial %d (%d chunks)", trial, len(chunks)), batch, want, view, got)
	}
}

// TestIncrementalOptionMatrix re-runs the mid-trace split under every
// miner option combination the engine-equivalence tests sweep, so the
// delta path is proven equivalent for cut-offs, length caps and the
// naive strategy too, not just the defaults.
func TestIncrementalOptionMatrix(t *testing.T) {
	data := syntheticTraceV2(t, 13, 2000, 64)
	offs := syncMarkerOffsets(data)
	if len(offs) < 2 {
		t.Fatalf("only %d sync markers", len(offs))
	}
	mid := offs[len(offs)/2]
	batch := batchImport(t, data)
	for _, opt := range minerOptMatrix {
		want := mustDeriveAll(t, batch, opt)
		view, got, _ := replayIncremental(t, [][]byte{data[:mid], data[mid:]}, opt)
		assertSameDerivation(t, "opts "+opt.Key(), batch, want, view, got)
	}
}

// evStream builds synthetic event sequences with strictly increasing
// sequence numbers.
type evStream struct {
	evs []trace.Event
	seq uint64
}

func (s *evStream) add(ev trace.Event) {
	s.seq++
	ev.Seq, ev.TS = s.seq, s.seq
	s.evs = append(s.evs, ev)
}

// twoTypePrelude defines two independent data types, one global lock
// for each, and one allocation of each: alpha at 0x1000 (members a, b),
// beta at 0x2000 (member x).
func (s *evStream) twoTypePrelude() {
	s.add(trace.Event{Kind: trace.KindDefCtx, CtxID: 1, CtxKind: trace.CtxTask, CtxName: "task/1"})
	s.add(trace.Event{Kind: trace.KindDefType, TypeID: 1, TypeName: "alpha", Members: []trace.MemberDef{
		{Name: "a", Offset: 0, Size: 8}, {Name: "b", Offset: 8, Size: 8},
	}})
	s.add(trace.Event{Kind: trace.KindDefType, TypeID: 2, TypeName: "beta", Members: []trace.MemberDef{
		{Name: "x", Offset: 0, Size: 8},
	}})
	s.add(trace.Event{Kind: trace.KindDefLock, LockID: 1, LockName: "la", Class: trace.LockSpin, LockAddr: 0x100})
	s.add(trace.Event{Kind: trace.KindDefLock, LockID: 2, LockName: "lb", Class: trace.LockMutex, LockAddr: 0x200})
	s.add(trace.Event{Kind: trace.KindDefFunc, FuncID: 1, File: "f.c", Line: 1, Func: "fn"})
	s.add(trace.Event{Kind: trace.KindAlloc, AllocID: 1, TypeID: 1, Addr: 0x1000, Size: 16})
	s.add(trace.Event{Kind: trace.KindAlloc, AllocID: 2, TypeID: 2, Addr: 0x2000, Size: 8})
}

func (s *evStream) alphaRound() {
	s.add(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: 1, FuncID: 1})
	s.add(trace.Event{Kind: trace.KindWrite, Ctx: 1, Addr: 0x1000, AccessSize: 8, FuncID: 1})
	s.add(trace.Event{Kind: trace.KindRead, Ctx: 1, Addr: 0x1008, AccessSize: 8, FuncID: 1})
	s.add(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: 1, FuncID: 1})
}

func (s *evStream) betaRound() {
	s.add(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: 2, FuncID: 1})
	s.add(trace.Event{Kind: trace.KindWrite, Ctx: 1, Addr: 0x2000, AccessSize: 8, FuncID: 1})
	s.add(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: 2, FuncID: 1})
}

// TestDeltaDeriverReusesCleanGroups pins the invalidation granularity:
// an append touching only type beta must re-mine beta's groups and
// serve every alpha group from the cache — while still producing
// exactly the batch output.
func TestDeltaDeriverReusesCleanGroups(t *testing.T) {
	var prefix evStream
	prefix.twoTypePrelude()
	for i := 0; i < 10; i++ {
		prefix.alphaRound()
		prefix.betaRound()
	}
	var chunk evStream
	chunk.seq = prefix.seq
	for i := 0; i < 5; i++ {
		chunk.betaRound()
	}

	opt := Options{AcceptThreshold: 0.9}
	full := append(append([]trace.Event(nil), prefix.evs...), chunk.evs...)
	batch := batchImport(t, encodeEvents(t, full, 64))
	want := mustDeriveAll(t, batch, opt)

	view, got, stats := replayIncremental(t,
		[][]byte{encodeEvents(t, prefix.evs, 64), encodeEvents(t, chunk.evs, 64)}, opt)
	assertSameDerivation(t, "beta-only append", batch, want, view, got)

	// alpha has 3 observation groups (a written+read under la ⇒ w and r
	// groups for a? — the importer folds per (member, access type); the
	// exact count matters less than the split: every alpha group clean,
	// at least one beta group re-mined.
	if stats.Groups != stats.Reused+stats.Remined {
		t.Fatalf("stats don't add up: %+v", stats)
	}
	if stats.Reused == 0 {
		t.Errorf("append touching only beta reused no groups: %+v", stats)
	}
	if stats.Remined == 0 {
		t.Errorf("append touching only beta re-mined no groups: %+v", stats)
	}
	if stats.Remined >= stats.Groups {
		t.Errorf("append touching only beta re-mined every group (wholesale invalidation): %+v", stats)
	}
}

// TestDeltaDeriverRequiresSealedSnapshot pins the misuse guard: handing
// the deriver a mutable live store (whose groups later mutate in place)
// would silently poison the pointer-keyed cache, so it must panic.
func TestDeltaDeriverRequiresSealedSnapshot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DeriveAll on an unsealed store did not panic")
		}
	}()
	live := db.New(db.Config{})
	NewDeltaDeriver(Options{AcceptThreshold: 0.9}).DeriveAll(context.Background(), live)
}

// op interprets one byte as a workload action (access a member, take
// or drop a lock) in one of two contexts. Any byte yields a valid
// monotonic event, so arbitrary byte strings explore reconstructor
// states — nested critical sections, reads outside any lock,
// release-without-acquire — rather than fighting the codec.
func (s *evStream) op(b byte) {
	ctx := uint32(1 + (b>>6)&1)
	switch b % 6 {
	case 0:
		s.add(trace.Event{Kind: trace.KindRead, Ctx: ctx, Addr: 0x1000 + uint64((b>>3)%2)*8, AccessSize: 8, FuncID: 1})
	case 1:
		s.add(trace.Event{Kind: trace.KindWrite, Ctx: ctx, Addr: 0x1000 + uint64((b>>3)%2)*8, AccessSize: 8, FuncID: 1})
	case 2:
		s.add(trace.Event{Kind: trace.KindWrite, Ctx: ctx, Addr: 0x2000, AccessSize: 8, FuncID: 1})
	case 3:
		s.add(trace.Event{Kind: trace.KindAcquire, Ctx: ctx, LockID: uint64(1 + (b>>4)%2), FuncID: 1})
	case 4:
		s.add(trace.Event{Kind: trace.KindRelease, Ctx: ctx, LockID: uint64(1 + (b>>4)%2), FuncID: 1})
	case 5:
		s.add(trace.Event{Kind: trace.KindRead, Ctx: ctx, Addr: 0x2000, AccessSize: 8, FuncID: 1})
	}
}

// fuzzOpsEvents builds the event stream for a fuzzer-chosen op string.
func fuzzOpsEvents(ops []byte) []trace.Event {
	var s evStream
	s.twoTypePrelude()
	s.add(trace.Event{Kind: trace.KindDefCtx, CtxID: 2, CtxKind: trace.CtxSoftIRQ, CtxName: "softirq/0"})
	for _, b := range ops {
		s.op(b)
	}
	return s.evs
}

// FuzzIncrementalEquivalence lets the fuzzer choose both the workload
// and the split point, then checks the incremental pipeline against the
// batch oracle.
func FuzzIncrementalEquivalence(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint16(3))
	f.Add(bytes.Repeat([]byte{3, 0, 1, 4, 9, 2, 10, 16}, 40), uint16(100))
	f.Add([]byte{4, 4, 3, 3, 1, 0, 4, 4, 2, 5}, uint16(7))
	f.Fuzz(func(t *testing.T, ops []byte, split uint16) {
		if len(ops) > 4096 {
			t.Skip("cap workload size")
		}
		evs := fuzzOpsEvents(ops)
		k := int(split) % (len(evs) + 1)
		opt := Options{AcceptThreshold: 0.9}

		batch := batchImport(t, encodeEvents(t, evs, 32))
		want := mustDeriveAll(t, batch, opt)
		view, got, _ := replayIncremental(t,
			[][]byte{encodeEvents(t, evs[:k], 32), encodeEvents(t, evs[k:], 32)}, opt)
		assertSameDerivation(t, fmt.Sprintf("ops=%d split=%d", len(ops), k), batch, want, view, got)
	})
}
