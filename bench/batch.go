package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"lockdoc/internal/cli"
)

// batch is the measured phase of kernel-batch, where import dominates,
// and of deep-lock-batch, where mining and speculation do. It times the
// trace-to-documentation pipeline a lockdoc-doc user runs:
// cli.StreamDerive, then the documentation of every type label and the
// violation summary. Set-up is the phased pipeline (cli.OpenDB,
// core.DeriveAll, rendering), which also yields the reference every
// timed pass must reproduce byte for byte.
func batch(ctx context.Context, rc *runConfig, in *traceInput) (*outcome, error) {
	var ref rendering
	setup := make([]float64, rc.size.setupReps)
	for i := range setup {
		t0 := time.Now()
		r, err := phased(ctx, in.path, cli.Options{})
		if err != nil {
			return nil, fmt.Errorf("reference pipeline: %w", err)
		}
		setup[i] = time.Since(t0).Seconds()
		if i == 0 {
			ref = r
		} else if !r.equal(ref) {
			return nil, errors.New("reference pipeline is not deterministic")
		}
	}

	o := &outcome{}
	var lat []float64
	var busy time.Duration
	var keep any // the last pass's store and rules, resident when the heap is read
	for deadline := time.Now().Add(rc.measure); o.attempted == 0 || time.Now().Before(deadline); {
		keep = nil
		o.attempted++
		t0 := time.Now()
		r, view, results, err := fused(ctx, in.path, cli.Options{})
		d := time.Since(t0)
		switch {
		case err != nil:
			o.failed++
			fmt.Fprintf(rc.log, "%s: pass %d: %v\n", rc.workload, o.attempted, err)
			continue
		case !r.equal(ref):
			o.failed++
			fmt.Fprintf(rc.log, "%s: pass %d: output differs from the reference\n", rc.workload, o.attempted)
			continue
		}
		lat = append(lat, ms(d))
		busy += d
		keep = []any{view, results}
	}
	if len(lat) == 0 {
		return nil, errors.New("no pass succeeded")
	}
	heap := heapMB()
	runtime.KeepAlive(keep)
	p50 := median(lat)
	fmt.Fprintf(rc.log, "%s: %d events, %d labels, setup %.3f s, %d passes, p50 %.1f ms\n",
		rc.workload, in.events, len(ref.labels), median(setup), len(lat), p50)
	o.metrics = map[string]float64{
		"setup_s":          median(setup),
		"op_p50_ms":        p50,
		"op_p90_ms":        quantile(lat, 0.9),
		"throughput_per_s": float64(in.events) * float64(len(lat)) / busy.Seconds(),
		"heap_mb":          heap,
	}
	return o, nil
}
