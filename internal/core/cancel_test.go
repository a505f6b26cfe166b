// Cancellation tests for the context-aware derivation API: a cancelled
// context must stop every derivation path — sequential, parallel, and
// delta — at the next group boundary, and must never corrupt the delta
// deriver's cache.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"lockdoc/internal/db"
	"lockdoc/internal/obs"
	"lockdoc/internal/trace"
)

// manyGroupsDB builds a store with n single-member write groups through
// the real event path, so a mid-mine cancellation has group boundaries
// to land on.
func manyGroupsDB(tb testing.TB, n int) *db.DB {
	tb.Helper()
	d := db.New(db.Config{})
	seq := uint64(0)
	add := func(ev trace.Event) {
		seq++
		ev.Seq, ev.TS = seq, seq
		if err := d.Add(&ev); err != nil {
			tb.Fatal(err)
		}
	}
	members := make([]trace.MemberDef, n)
	for i := range members {
		members[i] = trace.MemberDef{Name: fmt.Sprintf("m%03d", i), Offset: uint32(8 * i), Size: 8}
	}
	add(trace.Event{Kind: trace.KindDefType, TypeID: 1, TypeName: "widget", Members: members})
	add(trace.Event{Kind: trace.KindAlloc, Ctx: 1, AllocID: 1, TypeID: 1, Addr: 0x10000, Size: uint32(8 * n)})
	for i := 0; i < n; i++ {
		add(trace.Event{Kind: trace.KindDefLock, LockID: uint64(i + 1),
			LockName: fmt.Sprintf("l%03d", i), Class: trace.LockSpin})
	}
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < n; i++ {
			add(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: uint64(i + 1)})
			add(trace.Event{Kind: trace.KindWrite, Ctx: 1, Addr: 0x10000 + uint64(8*i), AccessSize: 8})
			add(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: uint64(i + 1)})
		}
	}
	d.Flush()
	return d
}

// tripCtx is a context whose Done channel closes on the (trip+1)-th
// Done() call — the boundary checks themselves drive the cancellation,
// giving tests exact control over how many group boundaries pass
// before the context reads as cancelled.
type tripCtx struct {
	context.Context
	trip int64
	n    atomic.Int64
	done chan struct{}
	once sync.Once
}

func newTripCtx(trip int) *tripCtx {
	return &tripCtx{Context: context.Background(), trip: int64(trip), done: make(chan struct{})}
}

func (c *tripCtx) Done() <-chan struct{} {
	if c.n.Add(1) > c.trip {
		c.once.Do(func() { close(c.done) })
	}
	return c.done
}

func (c *tripCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

func TestDeriveAllCancelledBeforeStart(t *testing.T) {
	d := manyGroupsDB(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		out, err := DeriveAll(ctx, d, Options{AcceptThreshold: 0.9, Parallelism: par})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
		if out != nil {
			t.Errorf("parallelism %d: cancelled DeriveAll returned %d results, want nil", par, len(out))
		}
	}
}

func TestDeriveCancelledReturnsZeroResult(t *testing.T) {
	d := manyGroupsDB(t, 1)
	g := d.Groups()[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Derive(ctx, d, g, Options{AcceptThreshold: 0.9})
	if res.Group != g || res.Winner != nil || len(res.Hypotheses) != 0 {
		t.Errorf("cancelled Derive returned a populated result: %+v", res)
	}
}

// TestDeriveAllCancelMidMineSequential trips the context at a chosen
// group boundary and proves the sequential path stops exactly there:
// the number of groups actually mined equals the number of boundary
// checks that passed — cancellation latency is one group, not the rest
// of the store.
func TestDeriveAllCancelMidMineSequential(t *testing.T) {
	const groups, trip = 16, 3
	d := manyGroupsDB(t, groups)
	if got := len(d.Groups()); got != groups {
		t.Fatalf("fixture has %d groups, want %d", got, groups)
	}
	ctx := newTripCtx(trip)
	opt := Options{AcceptThreshold: 0.9, Parallelism: 1, Metrics: NewMetrics(obs.NewRegistry())}

	out, err := DeriveAll(ctx, d, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled DeriveAll returned results")
	}
	if mined := opt.Metrics.GroupsMined.Value(); mined != trip {
		t.Errorf("mined %d groups after tripping at boundary %d, want exactly %d", mined, trip, trip)
	}
}

func TestDeriveAllCancelMidMineParallel(t *testing.T) {
	const groups, workers = 64, 4
	d := manyGroupsDB(t, groups)
	ctx := newTripCtx(workers * 2)
	opt := Options{AcceptThreshold: 0.9, Parallelism: workers, Metrics: NewMetrics(obs.NewRegistry())}

	out, err := DeriveAll(ctx, d, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled DeriveAll returned results")
	}
	// Every worker checks after each claim, so at most one group per
	// passed check completes — nowhere near the full store.
	if mined := opt.Metrics.GroupsMined.Value(); mined >= groups {
		t.Errorf("mined all %d groups despite cancellation", mined)
	}
}

// TestDeriveAllCancelAfterLastClaim: the context is checked after each
// claim that found a group, so a pass cancelled only once its last
// group is claimed, or a pass with no group to claim, returns complete
// results at every worker count.
func TestDeriveAllCancelAfterLastClaim(t *testing.T) {
	const groups = 16
	view := manyGroupsDB(t, groups).Seal()
	want := mustDeriveAll(t, view, Options{AcceptThreshold: 0.9, Parallelism: 1})
	for _, par := range []int{1, 2, 4} {
		// One check per claimed group: the trip context reads as
		// cancelled only from check groups+1 on.
		got, err := DeriveAll(newTripCtx(groups), view, Options{AcceptThreshold: 0.9, Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: err = %v, want nil", par, err)
		}
		sameResults(t, fmt.Sprintf("parallelism %d", par), want, got)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := DeriveAll(cancelled, db.New(db.Config{}), Options{AcceptThreshold: 0.9}); out == nil || err != nil {
		t.Errorf("empty store, cancelled context: (%d results, %v), want (0 results, nil)", len(out), err)
	}

	// A warm delta pass over an unchanged snapshot has no dirty group.
	dd := NewDeltaDeriver(Options{AcceptThreshold: 0.9, Parallelism: 2})
	if _, _, err := dd.DeriveAll(context.Background(), view); err != nil {
		t.Fatal(err)
	}
	got, stats, err := dd.DeriveAll(cancelled, view)
	if err != nil {
		t.Fatalf("warm delta pass, cancelled context: err = %v, want nil", err)
	}
	if stats.Reused != groups {
		t.Errorf("warm delta pass reused %d/%d groups", stats.Reused, groups)
	}
	sameResults(t, "warm-delta-cancelled", want, got)
}

func TestDeltaDeriveCancelPreservesCache(t *testing.T) {
	const groups, trip = 12, 2
	view := manyGroupsDB(t, groups).Seal()
	opt := Options{AcceptThreshold: 0.9, Parallelism: 1}
	want := mustDeriveAll(t, view, opt)

	dd := NewDeltaDeriver(opt)

	// First pass: tripped after two groups. Nothing may be cached — a
	// partial snapshot in the cache would poison later delta passes.
	out, _, err := dd.DeriveAll(newTripCtx(trip), view)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled delta DeriveAll returned results")
	}
	if len(dd.cache) != 0 {
		t.Fatalf("cancelled delta pass cached %d partial results", len(dd.cache))
	}

	// A clean pass on the same deriver still yields batch-identical
	// output: cancellation never poisoned the cache.
	got, stats, err := dd.DeriveAll(context.Background(), view)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Remined != stats.Groups || stats.Reused != 0 {
		t.Errorf("cold delta pass reused %d/%d groups, want 0", stats.Reused, stats.Groups)
	}
	sameResults(t, "delta-after-cancel", want, got)

	// Second clean pass on the unchanged snapshot: everything reused.
	got2, stats2, err := dd.DeriveAll(context.Background(), view)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Reused != stats2.Groups {
		t.Errorf("warm delta pass reused %d/%d groups, want all %d", stats2.Reused, stats2.Groups, stats2.Groups)
	}
	sameResults(t, "delta-warm", want, got2)
}
