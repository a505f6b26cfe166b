package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lockdoc/internal/cli"
	"lockdoc/internal/server"
)

// appendDurable is lockdocd's durable write path with reads during
// writes. The server persists into a segment store. Set-up is
// server.New through the upload of the first fifth of a kernel trace's
// sync blocks to the first /doc answer. Each episode of the measured
// phase then appends the following blocks one per request from one
// closed-loop client, while one open-loop reader asks for /doc and
// /rules; the next episode re-uploads the base trace. Afterwards fresh
// servers reopen the store. The documentation after the last append of
// every episode and after every reopen must equal a batch render of
// exactly the blocks appended.
func appendDurable(ctx context.Context, rc *runConfig, in *traceInput) (*outcome, error) {
	sp := in.split(rc.size.appendBlocks)
	base, err := phasedBytes(ctx, rc.tmp, "base", sp.prefix)
	if err != nil {
		return nil, fmt.Errorf("reference for the base trace: %w", err)
	}
	final, err := phasedBytes(ctx, rc.tmp, "final", sp.through(len(sp.blocks)))
	if err != nil {
		return nil, fmt.Errorf("reference after the appends: %w", err)
	}

	var s *served
	var dir string
	setup := make([]float64, rc.size.setupReps)
	for i := range setup {
		if s != nil {
			if err := s.root.DeleteNamespace(ctx, benchNS); err != nil {
				return nil, err
			}
			s.close()
		}
		dir = filepath.Join(rc.tmp, fmt.Sprintf("store-%d", i))
		t0 := time.Now()
		s = startServer(server.Config{StoreRoot: dir})
		if _, err := s.c.Upload(ctx, sp.prefix); err != nil {
			s.close()
			return nil, fmt.Errorf("upload: %w", err)
		}
		doc, err := s.c.Doc(ctx, base.labels[0])
		setup[i] = time.Since(t0).Seconds()
		if err != nil || doc != base.docs[base.labels[0]] {
			s.close()
			return nil, fmt.Errorf("first /doc after upload: %v", firstErr(err, errMismatch))
		}
	}

	o := &outcome{}
	var lat []float64
	var events int
	var busy time.Duration
	var reads loadStats
	checkDocs := func(c *served, what string) {
		for _, l := range final.labels {
			doc, err := c.c.Doc(ctx, l)
			o.check(err == nil && doc == final.docs[l], rc.log, "append-durable: %s: /doc %s: %v", what, l, firstErr(err, errMismatch))
		}
	}
	// The reader asks only for labels the base trace already has, which
	// every state of an episode serves.
	readOp := func(i int) error {
		if i%2 == 1 {
			body, err := s.c.Rules(ctx, nil)
			if err == nil && !json.Valid(body) {
				err = errMismatch
			}
			return err
		}
		l := base.labels[(i/2)%len(base.labels)]
		doc, err := s.c.Doc(ctx, l)
		if err == nil && !strings.HasPrefix(doc, "/*\n * "+l+" locking rules") {
			err = errMismatch
		}
		return err
	}
	episodes := 0
	for deadline := time.Now().Add(rc.measure); episodes == 0 || time.Now().Before(deadline); episodes++ {
		if episodes > 0 {
			o.attempted++
			if _, err := s.c.Upload(ctx, sp.prefix); err != nil {
				return nil, fmt.Errorf("episode %d: re-upload: %w", episodes, err)
			}
		}
		rctx, stop := context.WithCancel(ctx)
		readerDone := make(chan loadStats, 1)
		go func() { readerDone <- openLoop(rctx, rc.size.readerRate, time.Hour, 1, readOp) }()
		for _, b := range sp.blocks {
			o.attempted++
			t0 := time.Now()
			res, err := s.c.Append(ctx, b)
			d := time.Since(t0)
			if err != nil || res.Events == 0 {
				o.failed++
				fmt.Fprintf(rc.log, "append-durable: append: %v (%d events)\n", err, res.Events)
				continue
			}
			lat = append(lat, ms(d))
			busy += d
			events += res.Events
		}
		stop()
		reads.add(<-readerDone)
		checkDocs(s, "after the last append")
	}
	heap := heapMB()
	s.close()
	o.attempted += reads.sent
	o.failed += reads.failed

	for i := 0; i < rc.size.setupReps; i++ {
		r := startServer(server.Config{StoreRoot: dir})
		n, err := r.srv.OpenStores()
		ok := err == nil && n == 1
		o.check(ok, rc.log, "append-durable: reopen: %d namespaces, %v", n, err)
		if ok {
			checkDocs(r, "after reopen")
		}
		r.close()
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no append succeeded")
	}
	fmt.Fprintf(rc.log, "append-durable: %d blocks, %d-byte base, %d episodes of %d appends, p50 %.1f ms, reader p50 %.2f ms p99 %.2f ms lag p99 %.2f ms, %d failed\n",
		len(in.ends), len(sp.prefix), episodes, len(sp.blocks), median(lat), median(reads.lat), quantile(reads.lat, 0.99),
		quantile(reads.lag, 0.99), o.failed)
	o.metrics = map[string]float64{
		"setup_s":          median(setup),
		"op_p50_ms":        median(lat),
		"op_p90_ms":        quantile(lat, 0.9),
		"throughput_per_s": float64(events) / busy.Seconds(),
		"heap_mb":          heap,
	}
	return o, nil
}

// phasedBytes renders raw with the reference pipeline.
func phasedBytes(ctx context.Context, dir, name string, raw []byte) (rendering, error) {
	path := filepath.Join(dir, name+".lkdc")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return rendering{}, err
	}
	return phased(ctx, path, cli.Options{})
}
