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

// streamOver feeds the chunks through one StreamDeriver — headered
// chunks via a fresh reader, bare block streams via a continuation
// reader, exactly like replayIncremental — and closes the window with
// Derive.
func streamOver(tb testing.TB, chunks [][]byte, opt Options) (*db.DB, []Result, StreamStats) {
	tb.Helper()
	sd := NewStreamDeriver(db.New(db.Config{}), opt)
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
		if _, err := sd.Consume(r); err != nil {
			tb.Fatalf("chunk %d: Consume: %v", i, err)
		}
	}
	view, results, stats, err := sd.Derive(context.Background())
	if err != nil {
		tb.Fatalf("Derive: %v", err)
	}
	return view, results, stats
}

// TestStreamMatchesBatchRandomSplits: the stream deriver must produce
// byte-identical results to batch import + DeriveAll, for any split of
// the trace into appended chunks, sequentially and with workers.
func TestStreamMatchesBatchRandomSplits(t *testing.T) {
	data := syntheticTraceV2(t, 17, 2500, 64)
	evs := readAllEvents(t, data)
	batch := batchImport(t, data)

	for _, workers := range []int{1, 4} {
		opt := Options{AcceptThreshold: 0.9, Parallelism: workers}
		want := mustDeriveAll(t, batch, opt)
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 6; trial++ {
			var chunks [][]byte
			prev := 0
			for prev < len(evs) {
				k := prev + 1 + rng.Intn(len(evs)-prev)
				chunks = append(chunks, encodeEvents(t, evs[prev:k], 32+rng.Intn(96)))
				prev = k
			}
			view, got, stats := streamOver(t, chunks, opt)
			label := fmt.Sprintf("workers %d, trial %d (%d chunks)", workers, trial, len(chunks))
			assertSameDerivation(t, label, batch, want, view, got)
			if stats.Events != len(evs) {
				t.Fatalf("%s: stats.Events = %d, want %d", label, stats.Events, len(evs))
			}
		}
	}
}

// TestStreamOptionMatrix sweeps the full miner option grid through the
// stream deriver against the batch oracle.
func TestStreamOptionMatrix(t *testing.T) {
	data := syntheticTraceV2(t, 19, 1500, 64)
	evs := readAllEvents(t, data)
	chunks := [][]byte{
		encodeEvents(t, evs[:len(evs)/3], 32),
		encodeEvents(t, evs[len(evs)/3:], 32),
	}
	batch := batchImport(t, data)
	for _, base := range minerOptMatrix {
		opt := base
		opt.Parallelism = 2
		want := mustDeriveAll(t, batch, opt)
		view, got, _ := streamOver(t, chunks, opt)
		assertSameDerivation(t, "opts "+opt.Key(), batch, want, view, got)
	}
}

// TestStreamSingleWorkerDegradesToBatch: one worker and one window is
// a plain batch derivation — the same results, every group mined once
// in the closing pass, nothing answered from a cache and nothing mined
// speculatively.
func TestStreamSingleWorkerDegradesToBatch(t *testing.T) {
	data := syntheticTraceV2(t, 29, 1200, 64)
	evs := readAllEvents(t, data)
	opt := Options{AcceptThreshold: 0.9, Parallelism: 1}
	batch := batchImport(t, data)
	want := mustDeriveAll(t, batch, opt)

	view, got, stats := streamOver(t, [][]byte{data}, opt)
	assertSameDerivation(t, "single-worker", batch, want, view, got)
	if stats.Events != len(evs) {
		t.Fatalf("stats.Events = %d, want %d", stats.Events, len(evs))
	}
	if d := stats.Delta; d.Reused != 0 || d.Remined != d.Groups || d.Groups == 0 {
		t.Fatalf("single window is not one full pass: %+v", d)
	}
	if stats.SpecPasses != 0 {
		t.Fatalf("speculation ran at one worker: %+v", stats)
	}
}

// TestStreamCancellation: cancelling the final pass surfaces ctx.Err
// and leaves the deriver usable — a later Derive with a live context
// still matches the batch oracle.
func TestStreamCancellation(t *testing.T) {
	data := syntheticTraceV2(t, 31, 1500, 64)
	opt := Options{AcceptThreshold: 0.9, Parallelism: 2}
	batch := batchImport(t, data)
	want := mustDeriveAll(t, batch, opt)

	sd := NewStreamDeriver(db.New(db.Config{}), opt)
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Consume(r); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := sd.Derive(cancelled); err != context.Canceled {
		t.Fatalf("cancelled Derive: err = %v, want context.Canceled", err)
	}
	view, got, _, err := sd.Derive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameDerivation(t, "post-cancel", batch, want, view, got)
}

// TestStreamAddWindows drives the Add/Derive cycle the follow loop and
// lockdocd append mode use: several windows against one deriver, each
// window's result matching a batch derivation of the prefix so far.
func TestStreamAddWindows(t *testing.T) {
	data := syntheticTraceV2(t, 37, 1800, 64)
	evs := readAllEvents(t, data)
	opt := Options{AcceptThreshold: 0.9, Parallelism: 2}

	sd := NewStreamDeriver(db.New(db.Config{}), opt)
	bounds := []int{len(evs) / 4, len(evs) / 2, len(evs)}
	prev := 0
	for wi, end := range bounds {
		for i := prev; i < end; i++ {
			if err := sd.Add(&evs[i]); err != nil {
				t.Fatal(err)
			}
		}
		view, got, stats, err := sd.Derive(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		batch := batchImport(t, encodeEvents(t, evs[:end], 64))
		want := mustDeriveAll(t, batch, opt)
		assertSameDerivation(t, fmt.Sprintf("window %d", wi), batch, want, view, got)
		if stats.Events != end-prev {
			t.Fatalf("window %d: stats.Events = %d, want %d (window accounting resets per Derive)", wi, stats.Events, end-prev)
		}
		prev = end
	}
}

// FuzzStreamEquivalence lets the fuzzer choose the workload and the
// chunk split, then checks the stream deriver against the batch oracle.
func FuzzStreamEquivalence(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint16(3))
	f.Add(bytes.Repeat([]byte{3, 0, 1, 4, 9, 2, 10, 16}, 40), uint16(100))
	f.Fuzz(func(t *testing.T, ops []byte, split uint16) {
		if len(ops) > 4096 {
			t.Skip("cap workload size")
		}
		evs := fuzzOpsEvents(ops)
		k := int(split) % (len(evs) + 1)
		opt := Options{AcceptThreshold: 0.9, Parallelism: 2}

		batch := batchImport(t, encodeEvents(t, evs, 32))
		want := mustDeriveAll(t, batch, opt)
		chunks := [][]byte{encodeEvents(t, evs[:k], 32), encodeEvents(t, evs[k:], 32)}
		view, got, _ := streamOver(t, chunks, opt)
		assertSameDerivation(t, fmt.Sprintf("ops=%d split=%d", len(ops), k), batch, want, view, got)
	})
}
