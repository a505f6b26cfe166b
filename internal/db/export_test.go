package db

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"lockdoc/internal/trace"
)

func exportFixture(t *testing.T) *DB {
	t.Helper()
	f := newFeeder(t, Config{SubclassedTypes: []string{"inode"}})
	f.defType(1, "inode",
		trace.MemberDef{Name: "i_state", Offset: 0, Size: 8},
		trace.MemberDef{Name: "i_lock", Offset: 8, Size: 8, IsLock: true},
	)
	f.defFunc(1, "fs/inode.c", 10, "op")
	f.defStack(1, 1)
	f.alloc(1, 1, 1, 0x1000, 16, "ext4")
	f.alloc(1, 2, 1, 0x2000, 16, "proc")
	f.defLock(1, "i_lock", trace.LockSpin, 0x1008, 0x1000)
	f.defLock(2, "global_lock", trace.LockSpin, 0x100, 0)

	f.acquire(1, 1)
	f.write(1, 0x1000, 1, 1)
	f.release(1, 1)
	f.write(1, 0x2000, 1, 1)
	f.db.Flush()
	return f.db
}

func TestExportObservationsCSV(t *testing.T) {
	d := exportFixture(t)
	var buf bytes.Buffer
	if err := d.ExportObservationsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	if len(rows) != 3 { // header + 2 observation rows
		t.Fatalf("got %d rows, want 3:\n%v", len(rows), rows)
	}
	if rows[0][0] != "type" || rows[0][3] != "locks" {
		t.Errorf("header = %v", rows[0])
	}
	found := false
	for _, row := range rows[1:] {
		if row[0] == "inode:ext4" && row[3] == "ES(i_lock in inode)" {
			found = true
		}
	}
	if !found {
		t.Errorf("ext4 observation missing:\n%v", rows)
	}
}

func TestExportLocksCSV(t *testing.T) {
	d := exportFixture(t)
	var buf bytes.Buffer
	if err := d.ExportLocksCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "i_lock,spinlock_t,inode,embedded") {
		t.Errorf("embedded lock row missing:\n%s", out)
	}
	if !strings.Contains(out, "global_lock,spinlock_t,,static") {
		t.Errorf("static lock row missing:\n%s", out)
	}
}

func TestSummary(t *testing.T) {
	d := exportFixture(t)
	s := d.Summary()
	for _, want := range []string{"1 data types", "2 locks", "2 raw accesses", "2 observation groups"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q lacks %q", s, want)
		}
	}
}

func TestGroupMergedAcrossSubclasses(t *testing.T) {
	ix := exportFixture(t).IndexGroups()
	// Exact subclass lookups work.
	if _, ok := ix.Merged("inode", "ext4", "i_state", true); !ok {
		t.Fatal("exact subclass group missing")
	}
	// Merged lookup sums both subclasses.
	g, ok := ix.Merged("inode", "", "i_state", true)
	if !ok {
		t.Fatal("merged group missing")
	}
	if g.Total != 2 {
		t.Errorf("merged Total = %d, want 2", g.Total)
	}
	if len(g.Seqs) != 2 {
		t.Errorf("merged Seqs = %d, want 2 (locked + lock-free)", len(g.Seqs))
	}
	// Unknown member merges to nothing.
	if _, ok := ix.Merged("inode", "", "i_nope", true); ok {
		t.Error("merged lookup invented a group")
	}
}

// TestGroupMergedAggregates checks the per-sequence bookkeeping of the
// merge through a GroupIndex: Count, Events and the per-context event
// counters must sum across subclasses for identical lock signatures,
// non-subclassed types and named subclasses must resolve through the
// exact lookup, and mismatched write flags, unknown types and unknown
// subclasses must find nothing.
func TestGroupMergedAggregates(t *testing.T) {
	f := newFeeder(t, Config{SubclassedTypes: []string{"inode"}})
	f.defType(1, "inode", trace.MemberDef{Name: "i_data", Offset: 0, Size: 8})
	f.defType(2, "dentry", trace.MemberDef{Name: "d_flags", Offset: 0, Size: 8})
	f.defFunc(1, "fs/a.c", 1, "opA")
	f.defFunc(2, "fs/b.c", 2, "opB")
	f.defStack(1, 1)
	f.defStack(2, 2)
	f.alloc(1, 1, 1, 0x1000, 8, "ext4")
	f.alloc(1, 2, 1, 0x2000, 8, "proc")
	f.alloc(1, 3, 2, 0x3000, 8, "")
	f.defLock(1, "g_lock", trace.LockSpin, 0x100, 0)

	// ext4: two raw writes fold to one observation under g_lock.
	f.acquire(1, 1)
	f.write(1, 0x1000, 1, 1)
	f.write(1, 0x1000, 1, 1)
	f.release(1, 1)
	// proc: one write under the same lock class, different context.
	f.acquire(1, 1)
	f.write(1, 0x2000, 2, 2)
	f.release(1, 1)
	// ext4 again, lock-free: a second signature in the merged group.
	f.write(1, 0x1000, 1, 1)
	// dentry is not subclassed; only the exact path can resolve it.
	f.write(1, 0x3000, 2, 2)
	f.db.Flush()
	d := f.db

	t.Run("GroupIndex", func(t *testing.T) {
		ix := d.IndexGroups()
		g, ok := ix.Merged("inode", "", "i_data", true)
		if !ok {
			t.Fatal("merged inode group missing")
		}
		if g.Total != 3 || g.EventSum != 4 {
			t.Errorf("merged Total/EventSum = %d/%d, want 3/4", g.Total, g.EventSum)
		}
		var locked *SeqObs
		for _, so := range g.Seqs {
			if len(so.Seq) == 1 {
				locked = so
			}
		}
		if locked == nil {
			t.Fatal("merged single-lock observation missing")
		}
		if locked.Count != 2 || locked.Events != 3 {
			t.Errorf("merged Count/Events = %d/%d, want 2/3", locked.Count, locked.Events)
		}
		ctxEvents := map[uint32]uint64{}
		for c, n := range locked.Contexts {
			ctxEvents[c.FuncID] += n
		}
		if ctxEvents[1] != 2 || ctxEvents[2] != 1 {
			t.Errorf("merged context counters = %v, want func1:2 func2:1", ctxEvents)
		}

		// Non-subclassed types resolve through the exact lookup: the
		// merged result is the stored group itself, not a synthetic copy.
		exact, ok := d.Group("dentry", "", "d_flags", true)
		if !ok {
			t.Fatal("dentry group missing")
		}
		if merged, ok := ix.Merged("dentry", "", "d_flags", true); !ok || merged != exact {
			t.Errorf("merged(dentry) = %p ok=%v, want stored group %p", merged, ok, exact)
		}
		if ext4, ok := ix.Merged("inode", "ext4", "i_data", true); !ok || ext4.Key.Subclass != "ext4" || ext4.Total != 2 {
			t.Errorf("merged(inode:ext4) = %+v ok=%v, want the stored ext4 group", ext4, ok)
		}

		if _, ok := ix.Merged("inode", "", "i_data", false); ok {
			t.Error("merged lookup matched the wrong access type")
		}
		if _, ok := ix.Merged("nosuch", "", "i_data", true); ok {
			t.Error("merged lookup invented an unknown type")
		}
		if _, ok := ix.Merged("inode", "xfs", "i_data", true); ok {
			t.Error("non-empty unknown subclass must not merge")
		}
	})
}

func TestBlacklistedMembersCount(t *testing.T) {
	d := New(Config{MemberBlacklist: map[string][]string{"x": {"b"}}})
	seq := uint64(0)
	add := func(ev trace.Event) {
		seq++
		ev.Seq, ev.TS = seq, seq
		if err := d.Add(&ev); err != nil {
			t.Fatal(err)
		}
	}
	add(trace.Event{Kind: trace.KindDefType, TypeID: 1, TypeName: "x", Members: []trace.MemberDef{
		{Name: "a", Offset: 0, Size: 8, Atomic: true},
		{Name: "b", Offset: 8, Size: 8},
		{Name: "c", Offset: 16, Size: 8, IsLock: true},
		{Name: "d", Offset: 24, Size: 8},
	}})
	ty := d.Types[1]
	if got := d.BlacklistedMembers(ty); got != 3 {
		t.Errorf("BlacklistedMembers = %d, want 3 (atomic + blacklisted + lock)", got)
	}
}
