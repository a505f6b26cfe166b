package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lockdoc/internal/analysis"
	"lockdoc/internal/cli"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

// traceInput is one generated trace, written to a file for the
// file-based cli entry points, with the byte offsets just past each of
// its sync blocks.
type traceInput struct {
	raw    []byte
	path   string
	events uint64
	ends   []int
	genS   float64 // seconds spent generating the trace
}

// kernelTrace runs the simulated-kernel benchmark mix. tiny keeps only
// two macro benchmarks, for the smoke test.
func kernelTrace(seed int64, scale int, tiny bool) ([]byte, uint64, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, 0, err
	}
	g := workload.GenomeFromOptions(workload.Options{Seed: seed, Scale: scale, PreemptEvery: 97})
	if tiny {
		for i, name := range workload.FuzzOpNames() {
			if name != "mix-symlink" && name != "mix-chmod" {
				g.Weights[i] = 0
			}
		}
	}
	if _, err := workload.RunGenome(w, g); err != nil {
		return nil, 0, fmt.Errorf("running the kernel mix: %w", err)
	}
	return buf.Bytes(), w.Count(), nil
}

// deepLockTrace writes a synthetic trace shaped for hypothesis mining:
// types with 8 members and 5 locks each, where every critical section
// holds a random permutation of 4 of the type's 5 locks and touches
// every member. Each observation group thus sees many distinct lock
// orders, so mining dominates and import is small.
func deepLockTrace(seed int64, types, rounds int) ([]byte, uint64, error) {
	const members, locks, held = 8, 5, 4
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, 0, err
	}
	seq := uint64(0)
	emit := func(ev trace.Event) error {
		seq++
		ev.Seq, ev.TS = seq, seq
		return w.Write(&ev)
	}
	for t := 0; t < types; t++ {
		id := uint32(t + 1)
		defs := make([]trace.MemberDef, members)
		for m := range defs {
			defs[m] = trace.MemberDef{Name: fmt.Sprintf("f%d", m), Offset: uint32(m * 8), Size: 8}
		}
		if err := emit(trace.Event{Kind: trace.KindDefType, TypeID: id, TypeName: fmt.Sprintf("deep%02d", t), Members: defs}); err != nil {
			return nil, 0, err
		}
		if err := emit(trace.Event{Kind: trace.KindAlloc, Ctx: 1, AllocID: uint64(id), TypeID: id,
			Addr: uint64(id) << 16, Size: members * 8}); err != nil {
			return nil, 0, err
		}
		for l := 0; l < locks; l++ {
			lid := uint64(t*locks + l + 1)
			if err := emit(trace.Event{Kind: trace.KindDefLock, LockID: lid,
				LockName: fmt.Sprintf("lk%02d_%d", t, l), Class: trace.LockSpin, LockAddr: 0x1000000 + lid*8}); err != nil {
				return nil, 0, err
			}
		}
	}
	for r := 0; r < rounds; r++ {
		for t := 0; t < types; t++ {
			base := uint64(t * locks)
			perm := rng.Perm(locks)[:held]
			for _, l := range perm {
				if err := emit(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: base + uint64(l) + 1}); err != nil {
					return nil, 0, err
				}
			}
			addr := uint64(t+1) << 16
			for m := 0; m < members; m++ {
				kind := trace.KindWrite
				if rng.Intn(2) == 0 {
					kind = trace.KindRead
				}
				if err := emit(trace.Event{Kind: kind, Ctx: 1, Addr: addr + uint64(m*8), AccessSize: 8}); err != nil {
					return nil, 0, err
				}
			}
			for i := len(perm) - 1; i >= 0; i-- {
				if err := emit(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: base + uint64(perm[i]) + 1}); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), w.Count(), nil
}

// newInput times gen, writes its trace into the run's scratch directory
// and locates the sync block boundaries.
func newInput(rc *runConfig, gen func(*runConfig) ([]byte, uint64, error)) (*traceInput, error) {
	t0 := time.Now()
	raw, events, err := gen(rc)
	if err != nil {
		return nil, err
	}
	in := &traceInput{raw: raw, events: events, genS: time.Since(t0).Seconds(), path: filepath.Join(rc.tmp, "input.lkdc")}
	if in.ends, err = blockEnds(raw); err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.path, raw, 0o644); err != nil {
		return nil, err
	}
	return in, nil
}

// blockEnds returns the offset just past every sync block of a v2
// trace; each offset but the last starts the next block's marker.
func blockEnds(raw []byte) ([]int, error) {
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	var ends []int
	var ev trace.Event
	for last := uint64(0); ; {
		err := r.Read(&ev)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if b := r.Blocks(); b != last {
			last = b
			ends = append(ends, int(r.LastBlockEnd()))
		}
	}
	if len(ends) < 3 || ends[len(ends)-1] != len(raw) {
		return nil, fmt.Errorf("trace has %d sync blocks ending at %v of %d bytes; want at least 3 covering it", len(ends), ends, len(raw))
	}
	for _, e := range ends[:len(ends)-1] {
		if raw[e] != 0xFF {
			return nil, fmt.Errorf("no sync marker at block boundary %d", e)
		}
	}
	return ends, nil
}

// split is the durable-append shape of a trace: the first fifth of its
// sync blocks as the base upload, then up to n single-block appends.
type split struct {
	prefix []byte
	blocks [][]byte
}

func (in *traceInput) split(n int) split {
	p := (len(in.ends) + 4) / 5
	n = min(n, len(in.ends)-p)
	s := split{prefix: in.raw[:in.ends[p-1]]}
	for i := 0; i < n; i++ {
		s.blocks = append(s.blocks, in.raw[in.ends[p-1+i]:in.ends[p+i]])
	}
	return s
}

// through returns the prefix plus the first k appended blocks.
func (s split) through(k int) []byte {
	n := len(s.prefix)
	for _, b := range s.blocks[:k] {
		n += len(b)
	}
	out := make([]byte, 0, n)
	out = append(out, s.prefix...)
	for _, b := range s.blocks[:k] {
		out = append(out, b...)
	}
	return out
}

// deriveOptions are the mining options every pipeline in the benchmark
// uses: the paper's default accept threshold on every CPU.
func deriveOptions() core.Options {
	return core.Options{AcceptThreshold: core.DefaultAcceptThreshold, Parallelism: runtime.GOMAXPROCS(0)}
}

// rendering is the comparable output of one pipeline pass: the
// generated documentation of every type label and the per-type
// violation summary.
type rendering struct {
	labels []string
	docs   map[string]string
	viols  string
}

func render(view *db.DB, results []core.Result) rendering {
	r := rendering{labels: view.TypeLabels(), docs: make(map[string]string)}
	for _, l := range r.labels {
		r.docs[l] = analysis.GenerateDoc(view, results, l)
	}
	r.viols = fmt.Sprint(analysis.SummarizeViolations(view, analysis.FindViolations(view, results)))
	return r
}

func (r rendering) equal(o rendering) bool {
	if r.viols != o.viols || len(r.labels) != len(o.labels) {
		return false
	}
	for i, l := range r.labels {
		if o.labels[i] != l || r.docs[l] != o.docs[l] {
			return false
		}
	}
	return true
}

// phased is the reference pipeline: a one-shot import of the trace
// file, then a full derivation, then rendering.
func phased(ctx context.Context, path string, o cli.Options) (rendering, error) {
	d, err := cli.OpenDB(path, o)
	if err != nil {
		return rendering{}, err
	}
	results, err := core.DeriveAll(ctx, d, deriveOptions())
	if err != nil {
		return rendering{}, err
	}
	return render(d, results), nil
}

// fused is the pipeline the batch workloads time: import and mining
// overlapped by cli.StreamDerive, then rendering. It also returns the
// view and results so the caller can keep them alive.
func fused(ctx context.Context, path string, o cli.Options) (rendering, *db.DB, []core.Result, error) {
	view, results, _, err := cli.StreamDerive(ctx, path, o, deriveOptions())
	if err != nil {
		return rendering{}, nil, nil, err
	}
	return render(view, results), view, results, nil
}
