package db

import (
	"bytes"
	"testing"

	"lockdoc/internal/obs"
	"lockdoc/internal/trace"
)

// metricsFixtureTrace encodes a minimal lock-protected read/write
// workload as a v2 trace so the metrics test can exercise Consume.
func metricsFixtureTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2, SyncInterval: 16})
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	emit := func(ev trace.Event) {
		seq++
		ev.Seq = seq
		ev.TS = seq
		if err := w.Write(&ev); err != nil {
			t.Fatal(err)
		}
	}
	emit(trace.Event{Kind: trace.KindDefCtx, CtxID: 1, CtxName: "task"})
	emit(trace.Event{Kind: trace.KindDefType, TypeID: 1, TypeName: "clock",
		Members: []trace.MemberDef{{Name: "seconds", Offset: 0, Size: 8}}})
	emit(trace.Event{Kind: trace.KindDefLock, LockID: 1, LockName: "sec_lock", Class: trace.LockSpin})
	emit(trace.Event{Kind: trace.KindAlloc, Ctx: 1, AllocID: 1, TypeID: 1, Addr: 0x1000, Size: 8})
	for i := 0; i < 20; i++ {
		emit(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: 1})
		emit(trace.Event{Kind: trace.KindRead, Ctx: 1, Addr: 0x1000, AccessSize: 8})
		emit(trace.Event{Kind: trace.KindWrite, Ctx: 1, Addr: 0x1000, AccessSize: 8})
		emit(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: 1})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStoreMetrics(t *testing.T) {
	raw := metricsFixtureTrace(t)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	d := New(Config{Metrics: m})
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	n, err := d.Consume(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.EventsConsumed.Value(); got != uint64(n) {
		t.Errorf("events_consumed = %d, want %d", got, n)
	}
	if m.ConsumeSeconds.Count() != 1 {
		t.Errorf("consume_seconds count = %d, want 1", m.ConsumeSeconds.Count())
	}

	view := d.Seal()
	if m.Seals.Value() != 1 {
		t.Errorf("seals = %d, want 1", m.Seals.Value())
	}
	if m.SealSeconds.Count() != 1 {
		t.Errorf("seal_seconds count = %d, want 1", m.SealSeconds.Count())
	}
	if got, want := m.GroupsLive.Value(), int64(view.GroupCount()); got != want {
		t.Errorf("groups_live = %d, want %d", got, want)
	}
	if view.metrics != m {
		t.Error("sealed view should carry the store's metrics")
	}

	// A second seal with no appends: every group is shared, none dirty.
	view2 := d.Seal()
	if dirty := view2.DirtyGroupsSince(view); dirty != 0 {
		t.Fatalf("unchanged store reported %d dirty groups", dirty)
	}
	if m.GroupsDirty.Value() != 0 {
		t.Errorf("groups_dirty = %d, want 0", m.GroupsDirty.Value())
	}
}
