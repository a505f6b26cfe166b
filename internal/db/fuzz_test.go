package db

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"lockdoc/internal/trace"
)

// consumeSerial is the reference Consume: decode one event, apply it,
// repeat, all on the caller's goroutine, then fold the reader's
// corruption counters into the store. Consume must match it exactly.
func consumeSerial(d *DB, r *trace.Reader) (int, error) {
	n := 0
	var ev trace.Event
	for {
		err := r.Read(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, fmt.Errorf("db: import: %w", err)
		}
		if err := d.Add(&ev); err != nil {
			return n, err
		}
		n++
	}
	d.Corruptions = append(d.Corruptions, r.Corruptions()...)
	d.BytesSkipped += r.BytesSkipped()
	return n, nil
}

// stateOf seals d and renders the view with renderState.
func stateOf(t *testing.T, d *DB) string {
	t.Helper()
	return renderState(t, d.Seal())
}

// renderState renders everything a view holds, independent of any
// storage format: the filter configuration, every definition table
// sorted by ID, the interned lock keys, every group's observations
// (hydrated first), the import counters and the corruption reports.
// An allocation's liveness is read from the view's own log prefix, the
// last alloc or free of its ID.
func renderState(t *testing.T, view *DB) string {
	t.Helper()
	live := make(map[uint64]bool)
	for i := range view.nDefs {
		switch r := view.defs[i/defChunkLen].recs[i%defChunkLen].(type) {
		case *Allocation:
			live[r.ID] = true
		case freed:
			live[r.a.ID] = false
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "nowor %v lenient %v gen %d\n", view.noWoR, view.lenient, view.gen)
	for _, id := range slices.Sorted(maps.Keys(view.Types)) {
		ty := view.Types[id]
		fmt.Fprintf(&b, "type %d %q %v\n", ty.ID, ty.Name, ty.Members)
	}
	for _, id := range slices.Sorted(maps.Keys(view.Locks)) {
		fmt.Fprintf(&b, "lock %+v\n", *view.Locks[id])
	}
	for _, id := range slices.Sorted(maps.Keys(view.Funcs)) {
		fmt.Fprintf(&b, "func %+v\n", *view.Funcs[id])
	}
	for _, id := range slices.Sorted(maps.Keys(view.Ctxs)) {
		fmt.Fprintf(&b, "ctx %+v\n", *view.Ctxs[id])
	}
	for _, id := range slices.Sorted(maps.Keys(view.Stacks)) {
		fmt.Fprintf(&b, "stack %d %v\n", id, view.Stacks[id])
	}
	for _, id := range slices.Sorted(maps.Keys(view.Allocs)) {
		a := view.Allocs[id]
		fmt.Fprintf(&b, "alloc %d type %d/%d %q addr %#x size %d live %v\n",
			a.ID, a.Type.ID, len(a.Type.Members), a.Subclass, a.Addr, a.Size, live[id])
	}
	for i, k := range view.keys {
		fmt.Fprintf(&b, "key %d %+v\n", i, k)
	}
	fmt.Fprintf(&b, "subclassed %v\nfunc blacklist %v\nmember blacklist %v\n",
		slices.Sorted(maps.Keys(view.subbed)), slices.Sorted(maps.Keys(view.blFuncs)), view.blMembs)
	for _, g := range view.Groups() {
		if err := view.Hydrate(g); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "group %+v of %d members total %d events %d gen %d\n",
			g.Key, len(g.Type.Members), g.Total, g.EventSum, g.Gen)
		for _, sig := range slices.Sorted(maps.Keys(g.Seqs)) {
			so := g.Seqs[sig]
			fmt.Fprintf(&b, "  seq %v count %d events %d", so.Seq, so.Count, so.Events)
			for _, c := range slices.SortedFunc(maps.Keys(so.Contexts), func(x, y AccessCtx) int {
				return cmp.Or(cmp.Compare(x.FuncID, y.FuncID), cmp.Compare(x.StackID, y.StackID))
			}) {
				fmt.Fprintf(&b, " %d/%d:%d", c.FuncID, c.StackID, so.Contexts[c])
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "raw %d filtered %d txns %d unresolved %d crossrel %d unknown %d allocs %d frees %d locks %d open %d skipped %d\n",
		view.RawAccesses, view.FilteredAccesses, view.Transactions, view.UnresolvedAddrs, view.CrossCtxRelease,
		view.UnknownKindEvents, view.DroppedAllocs, view.DroppedFrees, view.UnknownLockOps, view.OpenAtEOF,
		view.BytesSkipped)
	for _, c := range view.Corruptions {
		fmt.Fprintln(&b, c)
	}
	return b.String()
}

// encodeTrace writes evs as a v2 trace, numbering their sequence and
// time stamps in order.
func encodeTrace(tb testing.TB, evs []trace.Event, syncInterval int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{SyncInterval: syncInterval})
	if err != nil {
		tb.Fatal(err)
	}
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
		evs[i].TS = uint64(i + 1)
		if err := w.Write(&evs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// corruptMiddle returns a copy of b with one bit flipped halfway in.
func corruptMiddle(b []byte) []byte {
	b = bytes.Clone(b)
	b[len(b)/2] ^= 0x08
	return b
}

// longStream returns a random stream longer than Consume's whole ring
// of batches.
func longStream(tb testing.TB) []trace.Event {
	evs := randomStream(rand.New(rand.NewSource(20)), 1300)
	if len(evs) < 1100 {
		tb.Fatalf("long stream has %d events, want at least 1100", len(evs))
	}
	return evs
}

// undefinedAlloc is an allocation of a type no trace defines: strict
// import rejects it.
var undefinedAlloc = trace.Event{Kind: trace.KindAlloc, Ctx: 1,
	AllocID: 1 << 40, TypeID: 999, Addr: 0x900000, Size: 16}

// consumeAllWays consumes data, in strict or lenient configuration,
// through the serial reference loop, through Consume and through
// Import, each over its own reader, and fails t unless all three apply
// the same events, return the same error and leave the same state. It
// returns Consume's result, or the reader's error if data has no valid
// trace header.
func consumeAllWays(t *testing.T, data []byte, lenient bool) (int, error) {
	t.Helper()
	opts := trace.ReaderOptions{Lenient: lenient, MaxErrors: 8}
	rs, err := trace.NewReaderOptions(bytes.NewReader(data), opts)
	if err != nil {
		return 0, err
	}
	var more [2]*trace.Reader
	for i := range more {
		if more[i], err = trace.NewReaderOptions(bytes.NewReader(data), opts); err != nil {
			t.Fatalf("another reader over the same bytes failed: %v", err)
		}
	}
	ref, d := New(Config{Lenient: lenient}), New(Config{Lenient: lenient})
	wantN, wantErr := consumeSerial(ref, rs)
	n, err := d.Consume(more[0])
	if n != wantN || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("lenient=%v: Consume = %d, %v; serial = %d, %v", lenient, n, err, wantN, wantErr)
	}
	state := stateOf(t, d)
	if state != stateOf(t, ref) {
		t.Fatalf("lenient=%v: Consume and the serial loop leave different state", lenient)
	}

	imp, ierr := Import(more[1], Config{Lenient: lenient})
	if ierr != nil {
		if imp != nil {
			t.Error("Import returned both a store and an error")
		}
		if fmt.Sprint(ierr) != fmt.Sprint(err) {
			t.Fatalf("lenient=%v: Import error %v, Consume error %v", lenient, ierr, err)
		}
		return n, err
	}
	if err != nil {
		t.Fatalf("lenient=%v: Import succeeded where Consume failed: %v", lenient, err)
	}
	// A successful import must be internally consistent enough to
	// summarize, even from damaged input.
	_ = imp.Summary()
	_ = imp.DegradedSummary()
	if lenient && len(imp.Corruptions) > 0 && imp.DegradedSummary() == "" {
		t.Error("degraded import with empty summary")
	}
	if stateOf(t, imp) != state {
		t.Fatalf("lenient=%v: Import and Consume leave different state", lenient)
	}
	return n, err
}

// FuzzImport decodes arbitrary bytes as a trace and consumes them, in
// strict and lenient configuration, through the serial reference loop,
// Consume and Import. Any may reject the input with an error; none may
// panic, and all must apply the same events, return the same error and
// leave the same state. TestConsumeMatchesSerial runs the long,
// batch-boundary cases, and the corpus keeps only one of them: the
// fuzzer minimizes every new input it derives from a long seed, at
// kilobytes a try, so each long seed costs it most of a short run.
func FuzzImport(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'L', 'K', 'D', 'C', 2})

	// A small valid trace as a seed: type + lock + func definitions,
	// an allocation, a locked write, a dangling (never released)
	// acquisition and an unclosed allocation at EOF.
	small := encodeTrace(f, []trace.Event{
		{Kind: trace.KindDefType, TypeID: 1, TypeName: "clock",
			Members: []trace.MemberDef{{Name: "seconds", Offset: 0, Size: 8}, {Name: "minutes", Offset: 8, Size: 8}}},
		{Kind: trace.KindDefLock, LockID: 1, LockName: "sec_lock", Class: trace.LockSpin, LockAddr: 0x100},
		{Kind: trace.KindDefFunc, FuncID: 1, File: "clock.c", Line: 10, Func: "tick"},
		{Kind: trace.KindAlloc, AllocID: 1, TypeID: 1, Addr: 0x1000, Size: 16},
		{Kind: trace.KindAcquire, LockID: 1, FuncID: 1},
		{Kind: trace.KindWrite, Addr: 0x1000, AccessSize: 8, FuncID: 1},
		{Kind: trace.KindRelease, LockID: 1, FuncID: 1},
		{Kind: trace.KindAcquire, LockID: 1, FuncID: 1},
	}, 4)
	f.Add(small)
	f.Add(corruptMiddle(small))

	// A stream longer than Consume's ring, rejected in strict mode right
	// at the first batch boundary: without it the fuzzer would hardly
	// reach an input that spans two batches.
	f.Add(encodeTrace(f, slices.Insert(longStream(f), consumeBatch, undefinedAlloc), 4))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, lenient := range []bool{false, true} {
			consumeAllWays(t, data, lenient)
		}
	})
}

// longCase is a trace longer than Consume's whole ring of batches.
type longCase struct {
	name string
	data []byte
	// rejectAt is the event a strict import rejects (an allocation of
	// an undefined type), or -1.
	rejectAt int
	// crc is set if a block in the middle fails its checksum.
	crc bool
}

// longCases returns long traces in small and default-sized blocks:
// clean, with an allocation of an undefined type first, on either side
// of the first batch boundary and last, and with a CRC-corrupt block in
// the middle.
func longCases(tb testing.TB) []longCase {
	var cases []longCase
	for _, syncInterval := range []int{4, 0} {
		cases = append(cases, longCase{name: fmt.Sprintf("sync%d/clean", syncInterval),
			data: encodeTrace(tb, longStream(tb), syncInterval), rejectAt: -1})
		for _, at := range []int{0, consumeBatch - 1, consumeBatch, consumeBatch + 1, -1} {
			evs := longStream(tb)
			if at < 0 {
				at = len(evs)
			}
			cases = append(cases, longCase{name: fmt.Sprintf("sync%d/reject@%d", syncInterval, at),
				data: encodeTrace(tb, slices.Insert(evs, at, undefinedAlloc), syncInterval), rejectAt: at})
		}
	}
	return append(cases, longCase{name: "sync4/crc", data: corruptMiddle(encodeTrace(tb, longStream(tb), 4)), rejectAt: -1, crc: true})
}

// TestConsumeMatchesSerial runs the long traces through
// consumeAllWays, strict and lenient, and checks that each ends where
// it should: a strict import stops at the rejected allocation or the
// corrupt block, a lenient one reads to the end.
func TestConsumeMatchesSerial(t *testing.T) {
	for _, c := range longCases(t) {
		for _, lenient := range []bool{false, true} {
			n, err := consumeAllWays(t, c.data, lenient)
			switch {
			case !lenient && c.rejectAt >= 0:
				if n != c.rejectAt || err == nil || !strings.Contains(err.Error(), "references unknown type 999") {
					t.Errorf("%s strict: %d events, %v; want %d and the undefined type", c.name, n, err, c.rejectAt)
				}
			case !lenient && c.crc:
				if err == nil || !strings.Contains(err.Error(), "block crc mismatch") {
					t.Errorf("%s strict: %d events, %v; want a crc mismatch", c.name, n, err)
				}
			case err != nil:
				t.Errorf("%s lenient=%v: %v", c.name, lenient, err)
			}
		}
	}
}

// panicReader hands out at most 100 bytes per Read and panics on its
// panicAt-th Read.
type panicReader struct {
	r       io.Reader
	reads   int
	panicAt int
}

var errInjected = errors.New("injected reader panic")

func (p *panicReader) Read(b []byte) (int, error) {
	if p.reads++; p.reads == p.panicAt {
		panic(errInjected)
	}
	return p.r.Read(b[:min(len(b), 100)])
}

// TestConsumeJoinsDecoder: however Consume ends, its decode goroutine
// has exited by the time it returns, and a panic raised while reading
// the trace reaches the caller's goroutine.
func TestConsumeJoinsDecoder(t *testing.T) {
	raw := encodeTrace(t, longStream(t), 4)
	crc := corruptMiddle(raw)
	rejected := encodeTrace(t, slices.Insert(longStream(t), consumeBatch, undefinedAlloc), 4)

	for _, tc := range []struct {
		name    string
		src     io.Reader
		wantErr string
		panics  bool
	}{
		{name: "eof", src: bytes.NewReader(raw)},
		{name: "decode error", src: bytes.NewReader(crc), wantErr: "db: import: trace: corrupt input: block crc mismatch"},
		{name: "add error", src: bytes.NewReader(rejected), wantErr: "references unknown type 999"},
		{name: "reader panic", src: &panicReader{r: bytes.NewReader(raw), panicAt: 40}, panics: true},
	} {
		// No subtests: a finished subtest's goroutine may still be
		// exiting when the next one counts.
		r, err := trace.NewReader(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			_, err = New(Config{}).Consume(r)
		}()
		switch {
		case tc.panics:
			// The caller recovers the reader's panic value, with the stack
			// of the goroutine that raised it.
			p, ok := recovered.(*DecodePanic)
			if !ok || p.Value != errInjected || !errors.Is(p, errInjected) {
				t.Errorf("%s: recovered %v, want the reader's panic %v", tc.name, recovered, errInjected)
			} else if !bytes.Contains(p.Stack, []byte("(*panicReader).Read")) {
				t.Errorf("%s: the panic's stack lacks the reader's frame:\n%s", tc.name, p.Stack)
			}
		case recovered != nil:
			t.Errorf("%s: Consume panicked: %v", tc.name, recovered)
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: Consume: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: Consume error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
		// The decoder closes its channel just before it exits.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > before {
			t.Errorf("%s: %d goroutines after Consume, %d before", tc.name, n, before)
		}
	}
}
