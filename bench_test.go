// Benchmark harness: one regeneration target per table and figure of
// the paper's evaluation (Sec. 7), plus ablation benchmarks for the
// design decisions listed in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// The expensive part — running the instrumented benchmark mix — is done
// once per process in a shared fixture; the per-table benchmarks then
// measure regenerating that table from the shared trace, which is the
// quantity that varies with the analysis algorithms.
package lockdoc_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"lockdoc/internal/analysis"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/fs"
	"lockdoc/internal/kvstore"
	"lockdoc/internal/lockdep"
	"lockdoc/internal/locsrc"
	"lockdoc/internal/relation"
	"lockdoc/internal/report"
	"lockdoc/internal/segstore"
	"lockdoc/internal/server"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

type fixture struct {
	raw     []byte
	sys     *workload.System
	db      *db.DB
	stats   trace.Stats
	results []core.Result
	checks  []analysis.CheckResult
}

var (
	fixOnce sync.Once
	fix     fixture
)

func mixFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			panic(err)
		}
		sys, err := workload.Run(w, workload.Options{Seed: 42, Scale: 2, PreemptEvery: 97})
		if err != nil {
			panic(err)
		}
		fix.raw = buf.Bytes()
		fix.sys = sys

		r, err := trace.NewReader(bytes.NewReader(fix.raw))
		if err != nil {
			panic(err)
		}
		fix.stats, err = trace.Collect(r)
		if err != nil {
			panic(err)
		}
		fix.db = importTrace(fix.raw, fs.DefaultConfig())
		fix.results, err = core.DeriveAll(context.Background(), fix.db, core.Options{AcceptThreshold: 0.9})
		if err != nil {
			panic(err)
		}
		fix.checks, err = analysis.CheckAll(fix.db, fs.DocumentedRules())
		if err != nil {
			panic(err)
		}
	})
	return &fix
}

func importTrace(raw []byte, cfg db.Config) *db.DB {
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		panic(err)
	}
	d, err := db.Import(r, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

func clockTrace(b *testing.B) []byte {
	b.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := workload.RunClockExample(w, 42, 1000); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkFig1LockUsage regenerates Figure 1: generate and scan the
// synthetic kernel source corpus across 39 releases.
func BenchmarkFig1LockUsage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		locsrc.RenderFigure1(io.Discard, 42)
	}
}

// BenchmarkTab1ClockFolding regenerates Table 1: trace the clock
// example, fold its accesses and render the access matrix.
func BenchmarkTab1ClockFolding(b *testing.B) {
	raw := clockTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := importTrace(raw, db.Config{})
		report.Table1(io.Discard, d)
	}
}

// BenchmarkTab2Hypotheses regenerates Table 2: hypothesis enumeration
// and winner selection for clock.minutes writes.
func BenchmarkTab2Hypotheses(b *testing.B) {
	d := importTrace(clockTrace(b), db.Config{})
	g, ok := d.Group("clock", "", "minutes", true)
	if !ok {
		b.Fatal("no minutes group")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Derive(context.Background(), d, g, core.Options{AcceptThreshold: 0.9})
		report.Table2(io.Discard, d, res)
	}
}

// BenchmarkTab3Coverage regenerates Table 3 from the shared mix run.
func BenchmarkTab3Coverage(b *testing.B) {
	f := mixFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Table3(io.Discard, f.sys.K, []string{"fs", "fs/ext4", "fs/jbd2"})
	}
}

// BenchmarkSec72TraceStats measures streaming the full trace for the
// Sec. 7.2 statistics.
func BenchmarkSec72TraceStats(b *testing.B) {
	f := mixFixture(b)
	b.SetBytes(int64(len(f.raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := trace.NewReader(bytes.NewReader(f.raw))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := trace.Collect(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImport measures the full post-processing phase (address
// resolution, transaction reconstruction, folding, filtering).
func BenchmarkImport(b *testing.B) {
	f := mixFixture(b)
	b.SetBytes(int64(len(f.raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		importTrace(f.raw, fs.DefaultConfig())
	}
}

// TestImportAllocsPerEvent holds ingest to its allocation budget:
// decoding and importing the scale-1 mix allocates per definition,
// allocation and new lock-sequence observation, not per access, so the
// average stays well below one allocation per event. AllocsPerRun pins
// GOMAXPROCS to 1, so the count does not depend on -cpu.
func TestImportAllocsPerEvent(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(w, workload.Options{Seed: 42, Scale: 1, PreemptEvery: 97}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	allocs := testing.AllocsPerRun(3, func() { importTrace(raw, fs.DefaultConfig()) })
	perEvent := allocs / float64(w.Count())
	t.Logf("%.0f allocations for %d events: %.3f per event", allocs, w.Count(), perEvent)
	if perEvent >= 0.25 {
		t.Errorf("import allocates %.3f times per event, budget 0.25", perEvent)
	}
}

// BenchmarkTab4RuleChecking regenerates Table 4: validate all 142
// documented rules.
func BenchmarkTab4RuleChecking(b *testing.B) {
	f := mixFixture(b)
	specs := fs.DocumentedRules()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := analysis.CheckAll(f.db, specs)
		if err != nil {
			b.Fatal(err)
		}
		report.Table4(io.Discard, analysis.Summarize(results))
	}
}

// BenchmarkTab5InodeRules regenerates Table 5: the detailed inode rule
// checks.
func BenchmarkTab5InodeRules(b *testing.B) {
	f := mixFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Table5(io.Discard, f.checks, "inode")
	}
}

// BenchmarkTab6RuleMining regenerates Table 6: derive rules for every
// observation group and summarize per type.
func BenchmarkTab6RuleMining(b *testing.B) {
	f := mixFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := core.DeriveAll(context.Background(), f.db, core.Options{AcceptThreshold: 0.9})
		if err != nil {
			b.Fatal(err)
		}
		report.Table6(io.Discard, analysis.SummarizeMining(f.db, results))
	}
}

// BenchmarkFig7ThresholdSweep regenerates Figure 7: the t_ac sweep
// (7 thresholds, full derivation each).
func BenchmarkFig7ThresholdSweep(b *testing.B) {
	f := mixFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := analysis.ThresholdSweep(context.Background(), f.db, 0.70, 1.00, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		report.Figure7(io.Discard, points, false)
		report.Figure7(io.Discard, points, true)
	}
}

// BenchmarkFig8DocGeneration regenerates Figure 8: the locking
// documentation for the ext4 inode subclass.
func BenchmarkFig8DocGeneration(b *testing.B) {
	f := mixFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Figure8(io.Discard, f.db, f.results, "inode:ext4")
	}
}

// BenchmarkTab7Violations regenerates Table 7: locate and summarize
// every rule violation.
func BenchmarkTab7Violations(b *testing.B) {
	f := mixFixture(b)
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		viols := analysis.FindViolations(f.db, f.results)
		sums := analysis.SummarizeViolations(f.db, viols)
		report.Table7(io.Discard, sums)
		events = 0
		for _, s := range sums {
			events += s.Events
		}
	}
	b.ReportMetric(float64(events), "violating-events")
}

// BenchmarkTab8ViolationExamples regenerates Table 8: the violation
// examples with stacks and locations.
func BenchmarkTab8ViolationExamples(b *testing.B) {
	f := mixFixture(b)
	viols := analysis.FindViolations(f.db, f.results)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Table8(io.Discard, analysis.Examples(f.db, viols, 12))
	}
}

// BenchmarkMixScale1 measures a full end-to-end run of the instrumented
// benchmark mix (phase 1) at scale 1, the dominant cost of the whole
// pipeline (the paper's Sec. 7.2 reports 34 minutes under Bochs).
func BenchmarkMixScale1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := trace.NewWriter(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workload.Run(w, workload.Options{Seed: 42, Scale: 1, PreemptEvery: 97}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md Sec. 5) ---

// BenchmarkAblationSelectionStrategy compares LockDoc's
// lowest-support-above-threshold winner selection against the naive
// highest-support strategy; the reported metric counts members where
// the two strategies disagree — each a case where the naive strategy
// would pick a weaker (potentially bug-hiding) rule.
func BenchmarkAblationSelectionStrategy(b *testing.B) {
	f := mixFixture(b)
	b.ResetTimer()
	var disagree int
	for i := 0; i < b.N; i++ {
		lockdocRes, err := core.DeriveAll(context.Background(), f.db, core.Options{AcceptThreshold: 0.9})
		if err != nil {
			b.Fatal(err)
		}
		naiveRes, err := core.DeriveAll(context.Background(), f.db, core.Options{AcceptThreshold: 0.9, Naive: true})
		if err != nil {
			b.Fatal(err)
		}
		disagree = 0
		for j := range lockdocRes {
			lw, nw := lockdocRes[j].Winner, naiveRes[j].Winner
			if lw == nil || nw == nil {
				continue
			}
			if f.db.SeqString(lw.Seq) != f.db.SeqString(nw.Seq) {
				disagree++
			}
		}
	}
	b.ReportMetric(float64(disagree), "disagreements")
}

// BenchmarkAblationWoR imports the trace with write-over-read folding
// disabled; the metric reports how many additional read observations the
// WoR rule would otherwise have suppressed.
func BenchmarkAblationWoR(b *testing.B) {
	f := mixFixture(b)
	cfgOn := fs.DefaultConfig()
	cfgOff := fs.DefaultConfig()
	cfgOff.NoWriteOverRead = true
	b.ResetTimer()
	var extra int64
	for i := 0; i < b.N; i++ {
		on := importTrace(f.raw, cfgOn)
		off := importTrace(f.raw, cfgOff)
		extra = 0
		for _, g := range off.Groups() {
			if g.Key.Write {
				continue
			}
			if gOn, ok := on.Group(g.Type.Name, g.Key.Subclass, g.MemberName(), false); ok {
				extra += int64(g.Total) - int64(gOn.Total)
			} else {
				extra += int64(g.Total)
			}
		}
	}
	b.ReportMetric(float64(extra), "suppressed-reads")
}

// BenchmarkAblationInitFilter imports the trace without the
// initialization/teardown function black list; the metric reports how
// many member groups flip to a different winning rule — documentation
// that would be polluted by unlocked init-time stores.
func BenchmarkAblationInitFilter(b *testing.B) {
	f := mixFixture(b)
	cfgOff := fs.DefaultConfig()
	cfgOff.FuncBlacklist = nil
	b.ResetTimer()
	var flipped int
	for i := 0; i < b.N; i++ {
		off := importTrace(f.raw, cfgOff)
		offRes, err := core.DeriveAll(context.Background(), off, core.Options{AcceptThreshold: 0.9})
		if err != nil {
			b.Fatal(err)
		}
		offWinners := make(map[string]string, len(offRes))
		for _, r := range offRes {
			if r.Winner != nil {
				key := r.Group.TypeLabel() + "." + r.Group.MemberName() + ":" + r.Group.AccessType()
				offWinners[key] = off.SeqString(r.Winner.Seq)
			}
		}
		flipped = 0
		for _, r := range f.results {
			if r.Winner == nil {
				continue
			}
			key := r.Group.TypeLabel() + "." + r.Group.MemberName() + ":" + r.Group.AccessType()
			if w, ok := offWinners[key]; ok && w != f.db.SeqString(r.Winner.Seq) {
				flipped++
			}
		}
	}
	b.ReportMetric(float64(flipped), "flipped-winners")
}

// --- Extensions ---

// BenchmarkExtensionLockdep measures the lock-order analysis over the
// full trace; the metric reports the detected inversions (the injected
// bdev_lock/i_lock ABBA).
func BenchmarkExtensionLockdep(b *testing.B) {
	f := mixFixture(b)
	b.SetBytes(int64(len(f.raw)))
	b.ResetTimer()
	var inversions int
	for i := 0; i < b.N; i++ {
		r, err := trace.NewReader(bytes.NewReader(f.raw))
		if err != nil {
			b.Fatal(err)
		}
		g, err := lockdep.Build(r)
		if err != nil {
			b.Fatal(err)
		}
		inversions = len(g.FindInversions())
	}
	b.ReportMetric(float64(inversions), "inversions")
}

// BenchmarkExtensionRelations measures the Sec. 8 object-interrelation
// miner; the metric reports how many EO rules resolved to a pointer
// path with >= 50% support.
func BenchmarkExtensionRelations(b *testing.B) {
	f := mixFixture(b)
	b.SetBytes(int64(len(f.raw)))
	b.ResetTimer()
	var resolved int
	for i := 0; i < b.N; i++ {
		r, err := trace.NewReader(bytes.NewReader(f.raw))
		if err != nil {
			b.Fatal(err)
		}
		m, err := relation.Mine(r)
		if err != nil {
			b.Fatal(err)
		}
		resolved = 0
		for _, rel := range m.Relations() {
			if path, sr := rel.Best(); path != "" && sr >= 0.5 {
				resolved++
			}
		}
	}
	b.ReportMetric(float64(resolved), "resolved-relations")
}

// BenchmarkExtensionDiff measures rule diffing between two derivations
// of the same store (the steady-state "no regression" case).
func BenchmarkExtensionDiff(b *testing.B) {
	f := mixFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		changes, err := analysis.DiffRules(context.Background(), f.db, f.db, core.Options{AcceptThreshold: 0.9})
		if err != nil {
			b.Fatal(err)
		}
		if len(changes) != 0 {
			b.Fatalf("self-diff produced %d changes", len(changes))
		}
	}
}

// BenchmarkAblationEnumeration compares hypothesis enumeration over
// observed combinations (the paper's approach) against a capped
// enumeration, demonstrating why full permutation enumeration stays
// tractable only because it is seeded by observed combinations.
func BenchmarkAblationEnumeration(b *testing.B) {
	f := mixFixture(b)
	b.Run("observed-full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DeriveAll(context.Background(), f.db, core.Options{AcceptThreshold: 0.9}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("capped-3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DeriveAll(context.Background(), f.db, core.Options{AcceptThreshold: 0.9, MaxLocks: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("capped-2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DeriveAll(context.Background(), f.db, core.Options{AcceptThreshold: 0.9, MaxLocks: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKVStoreEndToEnd traces the second target system (the
// memcached-style cache of internal/kvstore) and derives its rules —
// the full pipeline on a non-kernel target.
func BenchmarkKVStoreEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := kvstore.Run(w, kvstore.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
		d := importTrace(buf.Bytes(), db.Config{FuncBlacklist: kvstore.FuncBlacklist()})
		if _, err := core.DeriveAll(context.Background(), d, core.Options{AcceptThreshold: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel derivation (the lockdocd hot path) ---

// synthFixture builds a synthetic ~100k-event trace shaped to stress
// rule derivation: many observation groups (the parallel shards), each
// with several distinct 4-lock acquisition sequences (expensive
// hypothesis enumeration). Written through the real wire format and
// imported once per process.
var (
	synthOnce sync.Once
	synthDB   *db.DB
	synthRaw  []byte // the encoded trace, for the incremental-append benchmark
)

func synthFixture(tb testing.TB) *db.DB {
	tb.Helper()
	synthOnce.Do(func() {
		const (
			nTypes       = 48
			nMembers     = 8
			locksPerType = 5
			rounds       = 131 // 48 types x 16 events x 131 rounds + defs ≈ 101k events
		)
		rng := rand.New(rand.NewSource(7))
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			panic(err)
		}
		seq := uint64(0)
		emit := func(ev trace.Event) {
			seq++
			ev.Seq, ev.TS = seq, seq
			if err := w.Write(&ev); err != nil {
				panic(err)
			}
		}
		for t := 0; t < nTypes; t++ {
			id := uint32(t + 1)
			members := make([]trace.MemberDef, nMembers)
			for m := range members {
				members[m] = trace.MemberDef{Name: fmt.Sprintf("f%d", m), Offset: uint32(m * 8), Size: 8}
			}
			emit(trace.Event{Kind: trace.KindDefType, TypeID: id, TypeName: fmt.Sprintf("synth%02d", t), Members: members})
			emit(trace.Event{Kind: trace.KindAlloc, Ctx: 1, AllocID: uint64(id), TypeID: id,
				Addr: uint64(id) << 16, Size: nMembers * 8})
			for l := 0; l < locksPerType; l++ {
				lid := uint64(t*locksPerType + l + 1)
				emit(trace.Event{Kind: trace.KindDefLock, LockID: lid,
					LockName: fmt.Sprintf("lk%02d_%d", t, l), Class: trace.LockSpin, LockAddr: 0x1000000 + lid*8})
			}
		}
		for r := 0; r < rounds; r++ {
			for t := 0; t < nTypes; t++ {
				base := uint64(t * locksPerType)
				perm := rng.Perm(locksPerType)[:4]
				for _, l := range perm {
					emit(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: base + uint64(l) + 1})
				}
				addr := uint64(t+1) << 16
				for m := 0; m < nMembers; m++ {
					kind := trace.KindWrite
					if (r+m)%2 == 0 {
						kind = trace.KindRead
					}
					emit(trace.Event{Kind: kind, Ctx: 1, Addr: addr + uint64(m*8), AccessSize: 8})
				}
				for _, l := range perm {
					emit(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: base + uint64(l) + 1})
				}
			}
		}
		if err := w.Flush(); err != nil {
			panic(err)
		}
		if w.Count() < 100_000 {
			panic(fmt.Sprintf("synthetic trace has only %d events", w.Count()))
		}
		synthRaw = buf.Bytes()
		synthDB = importTrace(synthRaw, db.Config{})
	})
	return synthDB
}

// synthAppendChunk encodes a standalone mini-trace of `rounds` critical
// sections against the synthetic fixture's type 0 — its allocation,
// locks and members already exist in the base store, so appending the
// chunk dirties only type 0's observation groups (16 of 768). A unique
// `salt` gives each chunk its own allocation so repeated benchmark
// iterations never collide in the address map.
func synthAppendChunk(rounds, salt int) []byte {
	const nMembers = 8
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		panic(err)
	}
	seq := uint64(1_000_000 + salt*100_000)
	emit := func(ev trace.Event) {
		seq++
		ev.Seq, ev.TS = seq, seq
		if err := w.Write(&ev); err != nil {
			panic(err)
		}
	}
	addr := uint64(1000+salt) << 16
	emit(trace.Event{Kind: trace.KindAlloc, Ctx: 1, AllocID: uint64(100_000 + salt),
		TypeID: 1, Addr: addr, Size: nMembers * 8})
	for r := 0; r < rounds; r++ {
		for l := uint64(1); l <= 4; l++ {
			emit(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: l})
		}
		for m := 0; m < nMembers; m++ {
			kind := trace.KindWrite
			if (r+m)%2 == 0 {
				kind = trace.KindRead
			}
			emit(trace.Event{Kind: kind, Ctx: 1, Addr: addr + uint64(m*8), AccessSize: 8})
		}
		for l := uint64(4); l >= 1; l-- {
			emit(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: l})
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// freshSynthLive builds an appendable live store holding the synthetic
// trace (Consume without the destructive final Flush, the same state
// the server's append path maintains).
func freshSynthLive(b *testing.B) *db.DB {
	b.Helper()
	synthFixture(b) // populate synthRaw
	live := db.New(db.Config{})
	r, err := trace.NewReader(bytes.NewReader(synthRaw))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := live.Consume(r); err != nil {
		b.Fatal(err)
	}
	return live
}

// BenchmarkDeriveIncrementalAppend measures the steady-state cost of
// keeping derived rules current while a trace grows: each iteration
// appends a ~1% chunk (1000 events touching 16 of the 768 observation
// groups), seals a snapshot, and re-derives. The full-rederive variant
// mines every group from scratch — the pre-incremental behaviour — the
// delta variant reuses the warmed per-group cache and re-mines only the
// dirtied groups. Both include the identical consume+seal work, so the
// ratio isolates the delta-derivation win (DESIGN.md §10 targets ≥5x).
func BenchmarkDeriveIncrementalAppend(b *testing.B) {
	opt := core.Options{AcceptThreshold: 0.9}
	const chunkRounds = 63 // 63 rounds x 16 events + alloc ≈ 1% of the 101k-event base

	b.Run("full-rederive", func(b *testing.B) {
		live := freshSynthLive(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			chunk := synthAppendChunk(chunkRounds, i)
			b.StartTimer()
			r, err := trace.NewReader(bytes.NewReader(chunk))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := live.Consume(r); err != nil {
				b.Fatal(err)
			}
			if _, err := core.DeriveAll(context.Background(), live.Seal(), opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		live := freshSynthLive(b)
		dd := core.NewDeltaDeriver(opt)
		if _, _, err := dd.DeriveAll(context.Background(), live.Seal()); err != nil { // warm: every group mined once
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			chunk := synthAppendChunk(chunkRounds, 1_000_000+i)
			b.StartTimer()
			r, err := trace.NewReader(bytes.NewReader(chunk))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := live.Consume(r); err != nil {
				b.Fatal(err)
			}
			results, stats, err := dd.DeriveAll(context.Background(), live.Seal())
			if err != nil {
				b.Fatal(err)
			}
			if stats.Remined >= stats.Groups || len(results) != stats.Groups {
				b.Fatalf("delta pass re-mined %d of %d groups", stats.Remined, stats.Groups)
			}
		}
	})
}

// BenchmarkDeriveSequential is the single-threaded reference for the
// lockdocd cache-miss path: derive every group of the synthetic trace.
func BenchmarkDeriveSequential(b *testing.B) {
	d := synthFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DeriveAll(context.Background(), d, core.Options{AcceptThreshold: 0.9, Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// scalingWorkerCounts is the worker sweep for the parallel derivation
// benchmarks: 1 (the sequential baseline), powers of two up to the
// box's GOMAXPROCS, and GOMAXPROCS itself. On a 1-CPU box this is just
// {1} — the sweep reports what the hardware can actually show rather
// than pretending idle worker counts mean anything.
func scalingWorkerCounts() []int {
	max := runtime.GOMAXPROCS(0)
	counts := []int{1}
	for w := 2; w < max; w *= 2 {
		counts = append(counts, w)
	}
	if max > 1 {
		counts = append(counts, max)
	}
	return counts
}

// BenchmarkDeriveParallel measures derivation across the worker sweep,
// the workers sharing one claim cursor (results are byte-identical to
// sequential; see TestOracle).
func BenchmarkDeriveParallel(b *testing.B) {
	d := synthFixture(b)
	for _, workers := range scalingWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := core.Options{AcceptThreshold: 0.9, Parallelism: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.DeriveAll(context.Background(), d, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDeriveScalingSmoke is the CI guard against parallel-path
// regressions: on a real multicore box, deriving with GOMAXPROCS
// workers must beat the sequential path by at least 1.5x. Opt-in via
// LOCKDOC_SCALING_SMOKE=1 so laptop `go test ./...` runs stay quiet,
// and skipped outright below 4 CPUs where the bar is not meaningful.
func TestDeriveScalingSmoke(t *testing.T) {
	if os.Getenv("LOCKDOC_SCALING_SMOKE") == "" {
		t.Skip("set LOCKDOC_SCALING_SMOKE=1 to run the scaling smoke test")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("only %d CPUs; the 1.5x scaling bar needs at least 4", runtime.NumCPU())
	}
	d := synthFixture(t)
	measure := func(workers int) float64 {
		opt := core.Options{AcceptThreshold: 0.9, Parallelism: workers}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DeriveAll(context.Background(), d, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(res.NsPerOp())
	}
	seq := measure(1)
	par := measure(runtime.GOMAXPROCS(0))
	speedup := seq / par
	t.Logf("sequential %.0f ns/op, %d workers %.0f ns/op: %.2fx", seq, runtime.GOMAXPROCS(0), par, speedup)
	if speedup < 1.5 {
		t.Errorf("parallel derivation speedup %.2fx < 1.5x on %d CPUs", speedup, runtime.NumCPU())
	}
}

// deepFixture builds a trace shaped adversarially for hypothesis
// mining: few observation groups, but every access happens under 6–8
// held locks, so the per-group candidate space explodes factorially
// (Sec. 5.4's worst case: every permutation of every subset of each
// observed combination). A depth-8 group alone saturates at
// sum_k P(8,k) = 109,600 candidate hypotheses.
var (
	deepOnce sync.Once
	deepRaw  []byte
	deepDB   *db.DB
)

func deepFixture(b *testing.B) *db.DB {
	b.Helper()
	deepOnce.Do(func() {
		const (
			nTypes   = 6
			nMembers = 2
			nLocks   = 8  // locks per type; nesting depth is 6 + type%3
			rounds   = 10 // distinct acquisition orders per group
		)
		rng := rand.New(rand.NewSource(11))
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			panic(err)
		}
		seq := uint64(0)
		emit := func(ev trace.Event) {
			seq++
			ev.Seq, ev.TS = seq, seq
			if err := w.Write(&ev); err != nil {
				panic(err)
			}
		}
		for t := 0; t < nTypes; t++ {
			id := uint32(t + 1)
			members := make([]trace.MemberDef, nMembers)
			for m := range members {
				members[m] = trace.MemberDef{Name: fmt.Sprintf("f%d", m), Offset: uint32(m * 8), Size: 8}
			}
			emit(trace.Event{Kind: trace.KindDefType, TypeID: id, TypeName: fmt.Sprintf("deep%02d", t), Members: members})
			emit(trace.Event{Kind: trace.KindAlloc, Ctx: 1, AllocID: uint64(id), TypeID: id,
				Addr: uint64(id) << 16, Size: nMembers * 8})
			for l := 0; l < nLocks; l++ {
				lid := uint64(t*nLocks + l + 1)
				emit(trace.Event{Kind: trace.KindDefLock, LockID: lid,
					LockName: fmt.Sprintf("dl%02d_%d", t, l), Class: trace.LockSpin, LockAddr: 0x2000000 + lid*8})
			}
		}
		for r := 0; r < rounds; r++ {
			for t := 0; t < nTypes; t++ {
				depth := 6 + t%3
				base := uint64(t * nLocks)
				perm := rng.Perm(nLocks)[:depth]
				for _, l := range perm {
					emit(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: base + uint64(l) + 1})
				}
				addr := uint64(t+1) << 16
				for m := 0; m < nMembers; m++ {
					kind := trace.KindWrite
					if m%2 == 1 {
						kind = trace.KindRead
					}
					emit(trace.Event{Kind: kind, Ctx: 1, Addr: addr + uint64(m*8), AccessSize: 8})
				}
				for _, l := range perm {
					emit(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: base + uint64(l) + 1})
				}
			}
		}
		if err := w.Flush(); err != nil {
			panic(err)
		}
		deepRaw = buf.Bytes()
		deepDB = importTrace(deepRaw, db.Config{})
	})
	return deepDB
}

// BenchmarkDeriveDeepNesting measures full derivation over the
// deep-nesting fixture, with and without the reporting cut-off (the
// cut-off enables the miner's threshold pruning; results are identical
// either way, see core.TestMinerMatchesReference).
func BenchmarkDeriveDeepNesting(b *testing.B) {
	d := deepFixture(b)
	for _, c := range []struct {
		name string
		opt  core.Options
	}{
		{"full", core.Options{AcceptThreshold: 0.9}},
		{"cutoff=0.1", core.Options{AcceptThreshold: 0.9, CutoffThreshold: 0.1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.DeriveAll(context.Background(), d, c.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeriveServeTacMiss measures one lockdocd /v1/rules?tac=
// request that misses the snapshot's cached selections on a loaded
// generation of the deep-nesting fixture: every iteration asks for a
// threshold not asked for before, through the real handler stack
// (routing, selecting from the snapshot's table, rendering). The load
// itself, which mines the table, is outside the timer.
func BenchmarkDeriveServeTacMiss(b *testing.B) {
	deepFixture(b)
	s := server.New(server.Config{Import: &db.Config{}})
	if _, err := s.LoadTrace(bytes.NewReader(deepRaw), "deep"); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tac := 0.5 + 0.0001*float64(i%4000)
		req := httptest.NewRequest("GET", "/v1/rules?tac="+strconv.FormatFloat(tac, 'f', 4, 64), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

var (
	serveOnce sync.Once
	serveRaw  []byte
)

// BenchmarkServeRead measures one request of each lockdocd read route
// on the serve-read workload's input (the scale-1 kernel mix,
// PreemptEvery 97, seed 1), loaded into a default-configured server
// and driven through the real handler stack. rules, checks and stats
// ask without parameters, so after the first request of each the
// snapshot's body memo answers them: they time routing and writing the
// memoized body. rules_tac cycles through more thresholds than the
// snapshot's selection LRU holds, so every request selects from the
// loaded table, renders and encodes; violations_summary derives from
// the cached selection, renders and encodes; doc cycles through the
// type labels. The load, and collecting the previous route's garbage,
// are outside the timer.
func BenchmarkServeRead(b *testing.B) {
	serveOnce.Do(func() {
		var err error
		if serveRaw, err = kernelMixTrace(1); err != nil {
			panic(err)
		}
	})
	s := server.New(server.Config{})
	snap, err := s.LoadTrace(bytes.NewReader(serveRaw), "serve-read")
	if err != nil {
		b.Fatal(err)
	}
	labels := snap.DB.TypeLabels()
	tacs := make([]string, 2*server.DefaultCacheSize)
	for i := range tacs {
		tacs[i] = strconv.FormatFloat(0.5+0.49*float64(i)/float64(len(tacs)), 'f', 4, 64)
	}
	h := s.Handler()
	for _, c := range []struct {
		name string
		path func(i int) string
	}{
		{"rules", func(int) string { return "/v1/rules" }},
		{"rules_tac", func(i int) string { return "/v1/rules?tac=" + tacs[i%len(tacs)] }},
		{"checks", func(int) string { return "/v1/checks" }},
		{"violations_summary", func(int) string { return "/v1/violations?summary=true" }},
		{"stats", func(int) string { return "/v1/stats" }},
		{"doc", func(i int) string { return "/v1/doc?type=" + url.QueryEscape(labels[i%len(labels)]) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			// Collect the previous route's garbage outside the timer, so
			// no route pays for another's.
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", c.path(i), nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("GET %s: status %d: %s", c.path(i), rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// --- Segment store (the lockdocd -store-dir restart path) ---

// BenchmarkSegstoreCompact measures compacting the synthetic store
// (~101k events, 768 observation groups) into one compressed state
// segment — the cost every acknowledged ingest pays to make the next
// restart cheap. full encodes every group, as the first compaction
// after a restart or an eviction does; append times the compaction
// behind a ~1% append (the chunk of BenchmarkDeriveIncrementalAppend),
// which re-encodes only the groups the append dirtied and copies every
// other block forward from the previous state segment.
func BenchmarkSegstoreCompact(b *testing.B) {
	open := func(b *testing.B) *segstore.Store {
		s, err := segstore.Open(b.TempDir(), segstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		if err := s.ResetTrace(synthRaw); err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("full", func(b *testing.B) {
		d := synthFixture(b)
		s := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.DropCache() // forget the copy-forward index: encode every group
			if err := s.Compact(d); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(d.Groups())), "dirty_groups")
	})
	b.Run("append", func(b *testing.B) {
		const chunkRounds = 63 // ≈ 1% of the base, dirtying 16 of 768 groups
		live := freshSynthLive(b)
		s := open(b)
		prev := live.Seal()
		if err := s.Compact(prev); err != nil {
			b.Fatal(err)
		}
		dirty := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r, err := trace.NewReader(bytes.NewReader(synthAppendChunk(chunkRounds, i)))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := live.Consume(r); err != nil {
				b.Fatal(err)
			}
			next := live.Seal()
			dirty += next.DirtyGroupsSince(prev)
			b.StartTimer()
			if err := s.Compact(next); err != nil {
				b.Fatal(err)
			}
			prev = next
		}
		b.ReportMetric(float64(dirty)/float64(b.N), "dirty_groups")
	})
}

// BenchmarkSegstoreReopen compares the two ways a restarted lockdocd
// can reach serving state from the synthetic 101k-event trace: opening
// the segment store and decoding its compacted state metadata (groups
// hydrate lazily on first query), versus re-importing the raw trace —
// what a restart costs without the store.
func BenchmarkSegstoreReopen(b *testing.B) {
	d := synthFixture(b)
	dir := b.TempDir()
	s, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.ResetTrace(synthRaw); err != nil {
		b.Fatal(err)
	}
	if err := s.Compact(d); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("store", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := segstore.Open(dir, segstore.Options{})
			if err != nil {
				b.Fatal(err)
			}
			view, ok, err := st.LoadState()
			if err != nil || !ok {
				b.Fatalf("LoadState: ok=%v err=%v", ok, err)
			}
			if len(view.Groups()) == 0 {
				b.Fatal("reopened state has no groups")
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reimport", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d2 := importTrace(synthRaw, db.Config{})
			if len(d2.Groups()) == 0 {
				b.Fatal("reimport produced no groups")
			}
		}
	})
	// replay is what the first append to an evicted namespace pays
	// before it can commit: the store's trace chain, inflated segment by
	// segment, decoded and imported into a fresh store.
	b.Run("replay", func(b *testing.B) {
		st, err := segstore.Open(dir, segstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d2, err := db.Import(trace.NewContinuationReader(st.TraceReader(), trace.ReaderOptions{}), db.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if len(d2.Groups()) == 0 {
				b.Fatal("replay produced no groups")
			}
		}
	})
}

var (
	durableOnce   sync.Once
	durableBase   []byte
	durableBlocks [][]byte
)

// BenchmarkSegstoreDurableAppend measures lockdocd's durable append:
// one operation is one Server.AppendTrace of the next sync block into a
// store-backed server, which commits the block to the trace chain,
// consumes it, re-derives the dirty groups, checks the documented rules
// and compacts the state. The input has the append-durable workload's
// shape: the scale-2 kernel mix (seed 1, PreemptEvery 97), whose first
// fifth of sync blocks is uploaded as the base. After 64 appends the
// base is uploaded again, outside the timer.
func BenchmarkSegstoreDurableAppend(b *testing.B) {
	const appends = 64
	durableOnce.Do(func() {
		raw, err := kernelMixTrace(2)
		if err != nil {
			panic(err)
		}
		ends, err := syncBlockEnds(raw)
		if err != nil {
			panic(err)
		}
		p := (len(ends) + 4) / 5
		if len(ends)-p < appends {
			panic(fmt.Sprintf("the mix has %d sync blocks, too few for %d appends after a base of %d", len(ends), appends, p))
		}
		durableBase = raw[:ends[p-1]]
		for i := 0; i < appends; i++ {
			durableBlocks = append(durableBlocks, raw[ends[p-1+i]:ends[p+i]])
		}
	})
	s := server.New(server.Config{StoreRoot: b.TempDir()})
	upload := func() {
		if _, err := s.LoadTrace(bytes.NewReader(durableBase), "base"); err != nil {
			b.Fatal(err)
		}
	}
	upload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%appends == 0 {
			b.StopTimer()
			upload()
			b.StartTimer()
		}
		if _, _, err := s.AppendTrace(bytes.NewReader(durableBlocks[i%appends]), "append"); err != nil {
			b.Fatal(err)
		}
	}
}

// syncBlockEnds returns the offset just past every sync block of a v2
// trace.
func syncBlockEnds(raw []byte) ([]int, error) {
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	var ends []int
	var ev trace.Event
	for last := uint64(0); ; {
		err := r.Read(&ev)
		if err == io.EOF {
			return ends, nil
		}
		if err != nil {
			return nil, err
		}
		if n := r.Blocks(); n != last {
			last = n
			ends = append(ends, int(r.LastBlockEnd()))
		}
	}
}
