package db

import (
	"bytes"
	"math/rand"
	"testing"

	"lockdoc/internal/trace"
)

// fingerprint renders a store's complete observation state — groups,
// folded counts, lock-sequence signatures, per-context attribution and
// the headline counters — as one deterministic string, so stores built
// along different paths can be compared for exact equivalence.
func fingerprint(t *testing.T, d *DB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := d.ExportObservationsCSV(&buf); err != nil {
		t.Fatalf("ExportObservationsCSV: %v", err)
	}
	if err := d.ExportLocksCSV(&buf); err != nil {
		t.Fatalf("ExportLocksCSV: %v", err)
	}
	buf.WriteString(d.Summary())
	return buf.String()
}

// addPrefix replays evs[:k] into a fresh store without flushing.
func addPrefix(t *testing.T, evs []trace.Event, k int) *DB {
	t.Helper()
	d := New(Config{})
	for i := 0; i < k; i++ {
		if err := d.Add(&evs[i]); err != nil {
			t.Fatalf("Add event %d: %v", i, err)
		}
	}
	return d
}

// TestSealMatchesBatchFlush: sealing a live store after n events must
// yield exactly the state a batch import of those n events ends with —
// open transactions finalized on the view, same interning order, same
// counters — for prefixes of every length class.
func TestSealMatchesBatchFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	evs := randomStream(rng, 3000)

	splits := []int{0, 1, len(evs) / 3, len(evs) / 2, len(evs) - 1, len(evs)}
	for i := 0; i < 10; i++ {
		splits = append(splits, rng.Intn(len(evs)+1))
	}
	for _, k := range splits {
		batch := addPrefix(t, evs, k)
		batch.Flush()
		want := fingerprint(t, batch)

		live := addPrefix(t, evs, k)
		view := live.Seal()
		if got := fingerprint(t, view); got != want {
			t.Errorf("prefix %d: sealed view diverges from batch flush", k)
		}
		if view.Transactions != batch.Transactions {
			t.Errorf("prefix %d: Transactions %d, want %d", k, view.Transactions, batch.Transactions)
		}
		if view.OpenAtEOF != batch.OpenAtEOF {
			t.Errorf("prefix %d: OpenAtEOF %d, want %d", k, view.OpenAtEOF, batch.OpenAtEOF)
		}
	}
}

// TestSealLeavesLiveStateIntact: sealing mid-stream must not disturb
// the live reconstructor — finishing the stream afterwards has to land
// on the full-batch state, and the earlier view must not change
// retroactively.
func TestSealLeavesLiveStateIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	evs := randomStream(rng, 3000)

	batch := addPrefix(t, evs, len(evs))
	batch.Flush()
	want := fingerprint(t, batch)

	live := New(Config{})
	var early *DB
	var earlyPrint string
	for i := range evs {
		if i == len(evs)/2 {
			early = live.Seal()
			earlyPrint = fingerprint(t, early)
		}
		if err := live.Add(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	final := live.Seal()
	if got := fingerprint(t, final); got != want {
		t.Error("final sealed view diverges from batch import of the full stream")
	}
	if got := fingerprint(t, early); got != earlyPrint {
		t.Error("appending to the live store mutated an earlier sealed view")
	}
}

// TestSealedViewIgnoresLaterFrees: a view sealed after an allocation
// still renders the allocation live while, and after, the live store
// frees it on another goroutine; run under -race, reading the view
// during the free must not race with it.
func TestSealedViewIgnoresLaterFrees(t *testing.T) {
	f := sealFeeder(t)
	f.alphaRound()
	view := f.db.Seal()
	want := renderState(t, view)

	done := make(chan error)
	go func() {
		ev := trace.Event{Kind: trace.KindFree, Ctx: 1, AllocID: 1, Addr: 0x1000, Seq: f.seq + 1, TS: f.seq + 1}
		done <- f.db.Add(&ev)
	}()
	during := renderState(t, view)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if during != want {
		t.Errorf("view rendered differently while the live store freed allocation 1:\n--- at the seal\n%s\n--- during the free\n%s", want, during)
	}
	if got := renderState(t, view); got != want {
		t.Errorf("view renders differently after the live store freed allocation 1:\n--- at the seal\n%s\n--- after the free\n%s", want, got)
	}
}

// sealFeeder drives the two-type copy-on-write scenario: alpha guarded
// by lock 1, beta by lock 2, so an append touching only beta must
// leave every alpha group physically shared between snapshots.
func sealFeeder(t *testing.T) *feeder {
	f := newFeeder(t, Config{})
	f.defType(1, "alpha",
		trace.MemberDef{Name: "a", Offset: 0, Size: 8},
		trace.MemberDef{Name: "b", Offset: 8, Size: 8})
	f.defType(2, "beta", trace.MemberDef{Name: "x", Offset: 0, Size: 8})
	f.defLock(1, "la", trace.LockSpin, 0x100, 0)
	f.defLock(2, "lb", trace.LockMutex, 0x200, 0)
	f.defFunc(1, "f.c", 1, "fn")
	f.alloc(1, 1, 1, 0x1000, 16, "")
	f.alloc(1, 2, 2, 0x2000, 8, "")
	return f
}

func (f *feeder) alphaRound() {
	f.acquire(1, 1)
	f.write(1, 0x1000, 1, 0)
	f.read(1, 0x1008, 1, 0)
	f.release(1, 1)
}

func (f *feeder) betaRound() {
	f.acquire(1, 2)
	f.write(1, 0x2000, 1, 0)
	f.release(1, 2)
}

// TestSealCopyOnWrite pins the invariant the delta deriver's cache
// rests on: consecutive sealed views share an *ObsGroup pointer exactly
// when nothing was merged into the group in between.
func TestSealCopyOnWrite(t *testing.T) {
	f := sealFeeder(t)
	for i := 0; i < 5; i++ {
		f.alphaRound()
		f.betaRound()
	}
	v1 := f.db.Seal()
	for i := 0; i < 3; i++ {
		f.betaRound()
	}
	v2 := f.db.Seal()

	ga1, ok1 := v1.Group("alpha", "", "a", true)
	ga2, ok2 := v2.Group("alpha", "", "a", true)
	if !ok1 || !ok2 {
		t.Fatal("alpha.a write group missing")
	}
	if ga1 != ga2 {
		t.Error("untouched alpha group was not shared between snapshots")
	}

	gb1, ok1 := v1.Group("beta", "", "x", true)
	gb2, ok2 := v2.Group("beta", "", "x", true)
	if !ok1 || !ok2 {
		t.Fatal("beta.x write group missing")
	}
	if gb1 == gb2 {
		t.Error("appended-to beta group is still shared: copy-on-write failed")
	}
	if gb1.EventSum >= gb2.EventSum {
		t.Errorf("beta group did not grow: %d -> %d", gb1.EventSum, gb2.EventSum)
	}

	if d := v2.DirtyGroupsSince(v1); d < 1 || d >= len(v2.Groups()) {
		t.Errorf("DirtyGroupsSince = %d, want in [1,%d): only beta groups changed", d, len(v2.Groups()))
	}
	if d := v2.DirtyGroupsSince(v2); d != 0 {
		t.Errorf("DirtyGroupsSince(self) = %d, want 0", d)
	}
	if d := v2.DirtyGroupsSince(nil); d != len(v2.Groups()) {
		t.Errorf("DirtyGroupsSince(nil) = %d, want every group (%d)", d, len(v2.Groups()))
	}
}

// TestSealedStoreRejectsMutation: a sealed view is a snapshot; feeding
// it more events must fail loudly rather than corrupt shared state.
func TestSealedStoreRejectsMutation(t *testing.T) {
	f := sealFeeder(t)
	f.alphaRound()
	view := f.db.Seal()
	if !view.Sealed() {
		t.Fatal("Sealed() = false on a sealed view")
	}
	if f.db.Sealed() {
		t.Fatal("Sealed() = true on the live store")
	}
	ev := trace.Event{Kind: trace.KindRead, Seq: 9999, TS: 9999, Ctx: 1, Addr: 0x1000, AccessSize: 8, FuncID: 1}
	if err := view.Add(&ev); err == nil {
		t.Error("Add on a sealed view succeeded")
	}
	if _, err := view.Consume(nil); err == nil {
		t.Error("Consume on a sealed view succeeded")
	}
}

// TestSealGenerations: every seal advances the live generation, and a
// view carries the generation it captured.
func TestSealGenerations(t *testing.T) {
	f := sealFeeder(t)
	f.alphaRound()
	g0 := f.db.Generation()
	v1 := f.db.Seal()
	v2 := f.db.Seal()
	if v1.Generation() != g0 {
		t.Errorf("first view generation %d, want %d", v1.Generation(), g0)
	}
	if v2.Generation() != g0+1 {
		t.Errorf("second view generation %d, want %d", v2.Generation(), g0+1)
	}
	if live := f.db.Generation(); live != g0+2 {
		t.Errorf("live generation %d, want %d", live, g0+2)
	}
}
