package server

import (
	"bytes"
	"math/rand"
	"net/http"
	"path/filepath"
	"testing"

	"lockdoc/internal/faultinject"
	"lockdoc/internal/manifest"
	"lockdoc/internal/segstore"
)

// faultStoreServer builds a server committing into a segment store at
// dir through fsys (nil means the real filesystem). The store closes
// with the test; closing it early is the tests' "crash".
func faultStoreServer(t testing.TB, dir string, fsys manifest.FS) (*Server, *segstore.Store) {
	t.Helper()
	st, err := segstore.Open(dir, segstore.Options{FS: fsys})
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return New(Config{Ingest: lenientIngest(), Store: st, StoreRetry: fastServerRetry()}), st
}

// reopen is the restart half of a crash: a fresh server on the same
// directory republishes whatever the store committed.
func reopen(t testing.TB, dir string, fsys manifest.FS) (*Server, *segstore.Store) {
	t.Helper()
	s, st := faultStoreServer(t, dir, fsys)
	snap, err := s.OpenStore()
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if snap == nil {
		t.Fatal("reopen found nothing in a populated directory")
	}
	return s, st
}

// servedState is what the durability tests compare across restarts:
// the clock document plus the mined rules. The rules carry support
// counts, so unlike the document alone they tell every appended chunk
// apart.
func servedState(t testing.TB, s *Server) string {
	t.Helper()
	return body(t, s, "/v1/doc?type=clock") + body(t, s, "/v1/rules")
}

// mustPost drives one acknowledged ingest.
func mustPost(t testing.TB, s *Server, target string, body []byte) {
	t.Helper()
	if rec := do(t, s, "POST", target, bytes.NewReader(body)); rec.Code != http.StatusCreated {
		t.Fatalf("POST %s: status %d: %s", target, rec.Code, rec.Body.String())
	}
}

// TestChaosSoak is the chaos harness for the durability contract: 50
// ingestion cycles against a store-backed server whose filesystem
// randomly tears writes, loses renames, and fails flakily, with the
// process "crashing" (abandoned and re-opened from the directory) at
// random points and appends continuing after every restart. The
// invariant under test: the recovered server always serves exactly the
// state built from the *acknowledged* ingests — never partially-written
// state, never a byte the client was told failed.
//
// An oracle server with no store (and no faults) ingests the same bytes
// whenever the chaos server acknowledges them; after every crash the
// recovered document and rules must be byte-identical to the oracle's. The RNG is
// seeded so a failing run replays exactly.
func TestChaosSoak(t *testing.T) {
	const cycles = 50
	const seed = 20260807
	rng := rand.New(rand.NewSource(seed))
	t.Logf("chaos soak: %d cycles, seed %d", cycles, seed)

	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(manifest.OSFS{})
	raw := clockTraceBytes(t)
	sh := discoverClockShape(t, raw)

	oracle := New(Config{Ingest: lenientIngest()})
	chaosSrv, st := faultStoreServer(t, dir, ffs)
	mustPost(t, chaosSrv, "/v1/traces", raw)
	mustPost(t, oracle, "/v1/traces", raw)

	crashAndRecover := func(cycle int) {
		t.Helper()
		// The process dies: nothing of chaosSrv survives but the
		// directory. The reboot also clears any in-flight disk faults.
		ffs.Clear()
		_ = st.Close()
		chaosSrv, st = reopen(t, dir, ffs)
		if got, want := servedState(t, chaosSrv), servedState(t, oracle); got != want {
			t.Fatalf("cycle %d: recovered state differs from the acknowledged state:\n--- want\n%s\n--- got\n%s",
				cycle, want, got)
		}
	}

	for i := 0; i < cycles; i++ {
		// Pick this cycle's payload: mostly appends of varying size (some
		// as bare continuation blocks), occasionally a full replace.
		replace := i%17 == 16
		var target string
		var body []byte
		if replace {
			target, body = "/v1/traces", raw
		} else {
			target = "/v1/traces?mode=append"
			body = secondsOnlyChunk(t, sh, 8+rng.Intn(64))
			if rng.Intn(3) == 0 {
				body = stripHeader(t, body)
			}
		}

		// Arm at most one disk fault for the cycle. Counters restart at
		// zero each cycle, so after=0 targets this cycle's first op of
		// the chosen class.
		ffs.Clear()
		transientOnly := false
		switch rng.Intn(6) {
		case 0: // healthy disk
		case 1:
			ffs.TornWrite(0, rng.Float64()) // segment temp file torn mid-write
		case 2:
			ffs.TornAppend(0, rng.Float64()) // manifest line cut mid-append
		case 3:
			ffs.PartialRename(0) // crash between temp write and publish
		case 4:
			ffs.FailN(faultinject.OpWrite, 0, 2, true) // flaky disk: retries absorb it
			transientOnly = true
		case 5:
			ffs.FailN(faultinject.OpWrite, 0, 10, false) // dead disk: retries must not mask it
		}

		rec := do(t, chaosSrv, "POST", target, bytes.NewReader(body))
		switch rec.Code {
		case http.StatusCreated:
			// Acknowledged: the oracle ingests the same bytes.
			mustPost(t, oracle, target, body)
		case http.StatusServiceUnavailable:
			// Refused for durability; the served snapshot must not have
			// moved, and the bytes must not reappear after recovery.
			if transientOnly {
				t.Fatalf("cycle %d: transient faults leaked to the client: %s", i, rec.Body.String())
			}
		default:
			t.Fatalf("cycle %d: POST %s: unexpected status %d: %s", i, target, rec.Code, rec.Body.String())
		}

		// The snapshot served right now always matches the acknowledged
		// state, fault or no fault.
		if got, want := servedState(t, chaosSrv), servedState(t, oracle); got != want {
			t.Fatalf("cycle %d: live state diverged from acknowledged state", i)
		}

		if rng.Intn(4) == 0 {
			crashAndRecover(i)
		}
	}
	// Whatever the last cycle left behind, a final crash must still
	// recover the acknowledged state exactly.
	crashAndRecover(cycles)
}

// TestChaosRecoverFromDamagedDirectory drives recovery directly against
// directories damaged in ways the soak may not hit every run: a torn
// final manifest line, an orphan segment with no manifest entry, and a
// committed trace segment whose bytes were corrupted in place. Each
// recovered server must serve acknowledged state, accept appends, and
// keep them across further restarts.
func TestChaosRecoverFromDamagedDirectory(t *testing.T) {
	raw := clockTraceBytes(t)
	sh := discoverClockShape(t, raw)
	chunk := secondsOnlyChunk(t, sh, 16)

	// oracleState is the served state of an in-memory server fed bodies
	// in order.
	oracleState := func(t *testing.T, steps ...[]byte) string {
		o := New(Config{Ingest: lenientIngest()})
		mustPost(t, o, "/v1/traces", raw)
		for _, b := range steps {
			mustPost(t, o, "/v1/traces?mode=append", b)
		}
		return servedState(t, o)
	}
	fullState := oracleState(t, chunk)

	for _, tt := range []struct {
		name   string
		damage func(t *testing.T, dir string, st *segstore.Store)
		// survivors are the appends still committed once the chain
		// must be replayed (the store's state cache serves fullState
		// until then).
		survivors [][]byte
	}{
		{"torn_manifest_tail", func(t *testing.T, dir string, _ *segstore.Store) {
			// A crash mid-append leaves half a manifest line; the
			// committed entries before it must survive.
			if err := (manifest.OSFS{}).AppendFile(filepath.Join(dir, manifest.Name), []byte("v1 99 trace 12 0000")); err != nil {
				t.Fatal(err)
			}
		}, [][]byte{chunk}},
		{"orphan_segment", func(t *testing.T, dir string, _ *segstore.Store) {
			// A crash between segment publish and manifest append leaves
			// a named segment no manifest line references.
			if err := (manifest.OSFS{}).WriteFile(filepath.Join(dir, "seg-00000099.lkseg"), []byte("orphan")); err != nil {
				t.Fatal(err)
			}
		}, [][]byte{chunk}},
		{"corrupt_append_payload", func(t *testing.T, dir string, st *segstore.Store) {
			// Bit rot in the append's trace segment: its manifest CRC no
			// longer matches, so a replay stops at the head.
			var last string
			for _, e := range st.Manifest() {
				if e.Kind == segstore.KindTrace {
					last = e.Name
				}
			}
			path := filepath.Join(dir, last)
			data, err := (manifest.OSFS{}).ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xff
			if err := (manifest.OSFS{}).WriteFile(path, data); err != nil {
				t.Fatal(err)
			}
		}, nil},
	} {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			s, st := faultStoreServer(t, dir, nil)
			mustPost(t, s, "/v1/traces", raw)
			mustPost(t, s, "/v1/traces?mode=append", chunk)
			if got := servedState(t, s); got != fullState {
				t.Fatal("store-backed server disagrees with the oracle before any damage")
			}
			tt.damage(t, dir, st)
			_ = st.Close()

			// The compacted state still holds every acknowledged byte.
			s, st = reopen(t, dir, nil)
			if got := servedState(t, s); got != fullState {
				t.Error("recovered state differs from the acknowledged state")
			}
			// Each append after a restart replays the chain's valid
			// prefix; the result is that prefix plus every later
			// acknowledged chunk — never a blend, and nothing lost
			// behind the damage on the next replay.
			acked := tt.survivors
			for round := 1; round <= 2; round++ {
				next := stripHeader(t, secondsOnlyChunk(t, sh, 40*round))
				mustPost(t, s, "/v1/traces?mode=append", next)
				acked = append(acked[:len(acked):len(acked)], next)
				want := oracleState(t, acked...)
				if got := servedState(t, s); got != want {
					t.Fatalf("round %d: append after recovery does not extend the committed chain", round)
				}
				_ = st.Close()
				s, st = reopen(t, dir, nil)
				if got := servedState(t, s); got != want {
					t.Fatalf("round %d: the append after recovery did not survive a restart", round)
				}
			}
		})
	}
}

// TestChaosAppendRejectedBytesNeverResurface pins the ordering
// invariant appendTrace relies on: bytes whose commit failed were never
// consumed, so they are absent both from the live snapshot and from
// every future recovery — including the replay an append after the
// restart runs.
func TestChaosAppendRejectedBytesNeverResurface(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(manifest.OSFS{})
	s, st := faultStoreServer(t, dir, ffs)
	raw := clockTraceBytes(t)
	sh := discoverClockShape(t, raw)
	mustPost(t, s, "/v1/traces", raw)
	want := servedState(t, s)

	// Every durability write fails hard; the append must change nothing.
	ffs.FailN(faultinject.OpWrite, 0, 1000, false)
	chunk := secondsOnlyChunk(t, sh, 32)
	if rec := do(t, s, "POST", "/v1/traces?mode=append", bytes.NewReader(chunk)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("append with dead disk: status %d, want 503", rec.Code)
	}
	if servedState(t, s) != want {
		t.Fatal("rejected append changed the live snapshot")
	}

	// Crash and recover: the rejected bytes must not resurface.
	ffs.Clear()
	_ = st.Close()
	s2, _ := reopen(t, dir, ffs)
	if servedState(t, s2) != want {
		t.Fatal("rejected append resurfaced after recovery")
	}
	// Nor in the replayed live store the next append extends.
	other := stripHeader(t, secondsOnlyChunk(t, sh, 7))
	oracle := New(Config{Ingest: lenientIngest()})
	mustPost(t, oracle, "/v1/traces", raw)
	mustPost(t, oracle, "/v1/traces?mode=append", other)
	mustPost(t, s2, "/v1/traces?mode=append", other)
	if servedState(t, s2) != servedState(t, oracle) {
		t.Fatal("rejected append resurfaced in the replay after recovery")
	}
}
