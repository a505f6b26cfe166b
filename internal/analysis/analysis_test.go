package analysis

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/trace"
)

// fixture builds a small database with two types and a few locking
// patterns by feeding synthetic events.
func fixture(t *testing.T) *db.DB {
	t.Helper()
	d := db.New(db.Config{SubclassedTypes: []string{"inode"}})
	seq := uint64(0)
	add := func(ev trace.Event) {
		seq++
		ev.Seq, ev.TS = seq, seq
		if err := d.Add(&ev); err != nil {
			t.Fatal(err)
		}
	}
	add(trace.Event{Kind: trace.KindDefType, TypeID: 1, TypeName: "inode", Members: []trace.MemberDef{
		{Name: "i_state", Offset: 0, Size: 8},
		{Name: "i_size", Offset: 8, Size: 8},
		{Name: "i_lock", Offset: 16, Size: 8, IsLock: true},
		{Name: "i_count", Offset: 24, Size: 8, Atomic: true},
	}})
	add(trace.Event{Kind: trace.KindDefType, TypeID: 2, TypeName: "dentry", Members: []trace.MemberDef{
		{Name: "d_flags", Offset: 0, Size: 8},
	}})
	add(trace.Event{Kind: trace.KindDefFunc, FuncID: 1, File: "fs/inode.c", Line: 100, Func: "inode_op"})
	add(trace.Event{Kind: trace.KindDefFunc, FuncID: 2, File: "fs/bad.c", Line: 50, Func: "sloppy_op"})
	add(trace.Event{Kind: trace.KindDefStack, StackID: 1, StackFuncs: []uint32{1}})
	add(trace.Event{Kind: trace.KindDefStack, StackID: 2, StackFuncs: []uint32{2}})
	add(trace.Event{Kind: trace.KindAlloc, Ctx: 1, AllocID: 1, TypeID: 1, Addr: 0x1000, Size: 32, Subclass: "ext4"})
	add(trace.Event{Kind: trace.KindAlloc, Ctx: 1, AllocID: 2, TypeID: 2, Addr: 0x2000, Size: 8})
	add(trace.Event{Kind: trace.KindDefLock, LockID: 1, LockName: "i_lock", Class: trace.LockSpin, LockAddr: 0x1010, OwnerAddr: 0x1000})
	add(trace.Event{Kind: trace.KindDefLock, LockID: 2, LockName: "d_lock", Class: trace.LockSpin, LockAddr: 0x300})

	// i_state: 20 writes under i_lock (perfect rule).
	for i := 0; i < 20; i++ {
		add(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: 1, FuncID: 1})
		add(trace.Event{Kind: trace.KindWrite, Ctx: 1, Addr: 0x1000, AccessSize: 8, FuncID: 1, StackID: 1})
		add(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: 1, FuncID: 1})
	}
	// i_size: 19 writes under i_lock, 1 without (ambivalent, violation).
	for i := 0; i < 19; i++ {
		add(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: 1, FuncID: 1})
		add(trace.Event{Kind: trace.KindWrite, Ctx: 1, Addr: 0x1008, AccessSize: 8, FuncID: 1, StackID: 1})
		add(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: 1, FuncID: 1})
	}
	add(trace.Event{Kind: trace.KindWrite, Ctx: 1, Addr: 0x1008, AccessSize: 8, FuncID: 2, StackID: 2})
	// dentry.d_flags: always lock-free reads.
	for i := 0; i < 10; i++ {
		add(trace.Event{Kind: trace.KindRead, Ctx: 1, Addr: 0x2000, AccessSize: 8, FuncID: 1, StackID: 1})
		add(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: 2, FuncID: 1})
		add(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: 2, FuncID: 1})
	}
	d.Flush()
	return d
}

func TestParseLockSpec(t *testing.T) {
	cases := map[string]string{
		"inode_hash_lock":               "inode_hash_lock",
		"ES(i_lock in inode)":           "ES(i_lock in inode)",
		"ES(inode.i_lock)":              "ES(i_lock in inode)",
		"EO(list_lock in backing_dev)":  "EO(list_lock in backing_dev)",
		"EO(backing_dev.list_lock)":     "EO(list_lock in backing_dev)",
		" ES(journal_t.j_state_lock) ":  "ES(j_state_lock in journal_t)",
		"rcu":                           "rcu",
		"softirq":                       "softirq",
		"EO(wb.list_lock in bdi)":       "EO(wb.list_lock in bdi)",
		"ES(i_data.tree_lock in inode)": "ES(i_data.tree_lock in inode)",
	}
	for in, want := range cases {
		got, err := ParseLockSpec(in)
		if err != nil {
			t.Errorf("ParseLockSpec(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseLockSpec(%q) = %q, want %q", in, got, want)
		}
	}
	for _, bad := range []string{"", "ES()", "EO(x)", "ES(.x)", "ES(x.)", "foo bar", "foo(x)"} {
		if _, err := ParseLockSpec(bad); err == nil {
			t.Errorf("ParseLockSpec(%q) should fail", bad)
		}
	}
}

func TestCheckRuleVerdicts(t *testing.T) {
	d := fixture(t)
	cases := []struct {
		spec RuleSpec
		want Verdict
	}{
		{RuleSpec{Type: "inode", Subclass: "ext4", Member: "i_state", Write: true,
			Locks: []string{"ES(inode.i_lock)"}}, Correct},
		{RuleSpec{Type: "inode", Subclass: "ext4", Member: "i_size", Write: true,
			Locks: []string{"ES(inode.i_lock)"}}, Ambivalent},
		{RuleSpec{Type: "dentry", Member: "d_flags", Write: false,
			Locks: []string{"d_lock"}}, Incorrect},
		{RuleSpec{Type: "inode", Subclass: "ext4", Member: "i_state", Write: false,
			Locks: []string{"ES(inode.i_lock)"}}, NotObserved},
		{RuleSpec{Type: "inode", Subclass: "ext4", Member: "i_state", Write: true,
			Locks: []string{"never_seen_lock"}}, Incorrect},
	}
	for _, c := range cases {
		res, err := CheckRule(d, c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec.Label(), err)
			continue
		}
		if res.Verdict != c.want {
			t.Errorf("%s: verdict = %v (sr=%.2f), want %v", c.spec.Label(), res.Verdict, res.Sr, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	d := fixture(t)
	specs := []RuleSpec{
		{Type: "inode", Subclass: "ext4", Member: "i_state", Write: true, Locks: []string{"ES(inode.i_lock)"}},
		{Type: "inode", Subclass: "ext4", Member: "i_size", Write: true, Locks: []string{"ES(inode.i_lock)"}},
		{Type: "inode", Subclass: "ext4", Member: "i_state", Write: false, Locks: []string{"ES(inode.i_lock)"}},
		{Type: "dentry", Member: "d_flags", Write: false, Locks: []string{"d_lock"}},
	}
	results, err := CheckAll(d, specs)
	if err != nil {
		t.Fatal(err)
	}
	sums := Summarize(results)
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	ino := sums[0]
	if ino.Type != "inode" || ino.Rules != 3 || ino.NotObs != 1 || ino.Observed != 2 ||
		ino.Correct != 1 || ino.Ambivalent != 1 {
		t.Errorf("inode summary = %+v", ino)
	}
	if got := ino.CorrectPct(); got != 50 {
		t.Errorf("CorrectPct = %f, want 50", got)
	}
	den := sums[1]
	if den.Incorrect != 1 || den.IncorrectPct() != 100 {
		t.Errorf("dentry summary = %+v", den)
	}
}

func TestFindViolations(t *testing.T) {
	d := fixture(t)
	results, _ := core.DeriveAll(context.Background(), d, core.Options{AcceptThreshold: 0.9})
	viols := FindViolations(d, results)
	if len(viols) != 1 {
		t.Fatalf("got %d violations, want 1 (the lock-free i_size write)", len(viols))
	}
	v := viols[0]
	if v.Group.MemberName() != "i_size" || !v.Group.Key.Write {
		t.Errorf("violation on %s/%s, want i_size/w", v.Group.MemberName(), v.Group.AccessType())
	}
	if v.Events != 1 || v.Count != 1 {
		t.Errorf("events/count = %d/%d, want 1/1", v.Events, v.Count)
	}
	if len(v.Held) != 0 {
		t.Errorf("held = %v, want empty", d.SeqString(v.Held))
	}
}

func TestViolationSummaryAndExamples(t *testing.T) {
	d := fixture(t)
	results, _ := core.DeriveAll(context.Background(), d, core.Options{AcceptThreshold: 0.9})
	viols := FindViolations(d, results)
	sums := SummarizeViolations(d, viols)
	byLabel := map[string]ViolationSummary{}
	for _, s := range sums {
		byLabel[s.TypeLabel] = s
	}
	ino := byLabel["inode:ext4"]
	if ino.Events != 1 || ino.Members != 1 || ino.Contexts != 1 {
		t.Errorf("inode:ext4 summary = %+v, want 1/1/1", ino)
	}
	// dentry has observations but no violations: zero row present.
	den, ok := byLabel["dentry"]
	if !ok {
		t.Fatal("dentry zero row missing")
	}
	if den.Events != 0 || den.Members != 0 || den.Contexts != 0 {
		t.Errorf("dentry summary = %+v, want zeros", den)
	}

	exs := Examples(d, viols, 10)
	if len(exs) != 1 {
		t.Fatalf("got %d examples, want 1", len(exs))
	}
	ex := exs[0]
	if ex.TypeMember != "inode:ext4.i_size" {
		t.Errorf("TypeMember = %q", ex.TypeMember)
	}
	if ex.Location != "fs/bad.c:50" {
		t.Errorf("Location = %q, want fs/bad.c:50", ex.Location)
	}
	if !strings.Contains(ex.Stack, "sloppy_op") {
		t.Errorf("Stack = %q, want sloppy_op", ex.Stack)
	}
	if ex.Rule != "ES(i_lock in inode)" {
		t.Errorf("Rule = %q", ex.Rule)
	}
	if ex.Held != "no locks" {
		t.Errorf("Held = %q", ex.Held)
	}
}

func TestMiningSummary(t *testing.T) {
	d := fixture(t)
	results, _ := core.DeriveAll(context.Background(), d, core.Options{AcceptThreshold: 0.9})
	sums := SummarizeMining(d, results)
	byLabel := map[string]MiningSummary{}
	for _, s := range sums {
		byLabel[s.TypeLabel] = s
	}
	ino := byLabel["inode:ext4"]
	if ino.Members != 4 {
		t.Errorf("inode #M = %d, want 4", ino.Members)
	}
	if ino.Blacklisted != 2 { // i_lock + i_count
		t.Errorf("inode #Bl = %d, want 2", ino.Blacklisted)
	}
	if ino.RulesWrite != 2 { // i_state, i_size
		t.Errorf("inode #Rules(w) = %d, want 2", ino.RulesWrite)
	}
	if ino.NoLockWrite != 0 {
		t.Errorf("inode #Nl(w) = %d, want 0", ino.NoLockWrite)
	}
	den := byLabel["dentry"]
	if den.RulesRead != 1 || den.NoLockRead != 1 {
		t.Errorf("dentry rules/nolock (r) = %d/%d, want 1/1", den.RulesRead, den.NoLockRead)
	}
}

func TestNoLockFractionSweep(t *testing.T) {
	d := fixture(t)
	points, err := ThresholdSweep(context.Background(), d, 0.7, 1.0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d sweep points, want 4", len(points))
	}
	// dentry.d_flags reads are always lock-free: 100% no-lock at every
	// threshold.
	for _, p := range points {
		if got := p.Fractions["dentry"]["r"]; got != 100 {
			t.Errorf("t_ac=%.1f: dentry r no-lock = %f, want 100", p.Threshold, got)
		}
	}
	// i_size writes: 95% under i_lock. At t_ac=0.9 the i_lock rule wins
	// (no-lock fraction over inode writes = 0); at t_ac=1.0 only no-lock
	// clears the bar for i_size, so the write fraction rises to 50%.
	first := points[0].Fractions["inode:ext4"]["w"]
	last := points[len(points)-1].Fractions["inode:ext4"]["w"]
	if first != 0 {
		t.Errorf("t_ac=0.7: inode w no-lock = %f, want 0", first)
	}
	if last != 50 {
		t.Errorf("t_ac=1.0: inode w no-lock = %f, want 50", last)
	}
	// The sweep mines once and selects per threshold; every point must
	// equal a full derivation at its threshold.
	for _, p := range points {
		want, err := NoLockFraction(context.Background(), d, p.Threshold)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Fractions, want) {
			t.Errorf("t_ac=%.1f: sweep %v, full derivation %v", p.Threshold, p.Fractions, want)
		}
	}
}

func TestGenerateDoc(t *testing.T) {
	d := fixture(t)
	results, _ := core.DeriveAll(context.Background(), d, core.Options{AcceptThreshold: 0.9})
	doc := GenerateDoc(d, results, "inode:ext4")
	if !strings.Contains(doc, "ES(i_lock in inode) protects:") {
		t.Errorf("doc lacks i_lock rule:\n%s", doc)
	}
	if !strings.Contains(doc, "i_state") || !strings.Contains(doc, "i_size") {
		t.Errorf("doc lacks members:\n%s", doc)
	}
	dd := GenerateDoc(d, results, "dentry")
	if !strings.Contains(dd, "No locks needed for:") || !strings.Contains(dd, "d_flags") {
		t.Errorf("dentry doc wrong:\n%s", dd)
	}
}

func TestVerdictStrings(t *testing.T) {
	if Correct.String() != "correct" || Correct.Mark() != "ok" {
		t.Error("Correct naming wrong")
	}
	if Ambivalent.Mark() != "~" || Incorrect.Mark() != "X" || NotObserved.Mark() != "-" {
		t.Error("marks wrong")
	}
}

func TestSortChecks(t *testing.T) {
	rs := []CheckResult{
		{Spec: RuleSpec{Member: "b"}, Sr: 0.5},
		{Spec: RuleSpec{Member: "a", Write: true}, Sr: 1.0},
		{Spec: RuleSpec{Member: "c"}, Sr: 1.0},
	}
	SortChecks(rs)
	if rs[0].Spec.Member != "a" || rs[1].Spec.Member != "c" || rs[2].Spec.Member != "b" {
		t.Errorf("order = %v", []string{rs[0].Spec.Member, rs[1].Spec.Member, rs[2].Spec.Member})
	}
}
