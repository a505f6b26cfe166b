package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"lockdoc/internal/analysis"
	"lockdoc/internal/cli"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/fs"
	"lockdoc/internal/segstore"
	"lockdoc/internal/server"
	"lockdoc/internal/trace"
)

// probe is the traced run of every workload: it takes the workload's
// input through each layer's public calls one layer at a time,
// recording a span around every call, and reports each per-layer
// metric as the median over passes. Passes alternate between recording
// spans and not; the ratio of their durations is the tracing overhead.
func probe(ctx context.Context, rc *runConfig, in *traceInput) (*outcome, error) {
	o := &outcome{}
	acc := samples{}
	var traced, plain []float64
	for i, deadline := 0, time.Now().Add(rc.measure); i < 2 || time.Now().Before(deadline); i++ {
		var tr *tracer
		if i%2 == 0 {
			tr = rc.tr
		}
		s := samples{}
		dir := filepath.Join(rc.tmp, fmt.Sprintf("probe-%d", i))
		t0 := time.Now()
		err := probePass(ctx, rc, in, tr, s, o, dir)
		d := time.Since(t0).Seconds()
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			traced = append(traced, d)
			acc.merge(s)
		} else {
			plain = append(plain, d)
		}
	}
	m := acc.medians()
	m["bench.gen_s"] = in.genS
	m["bench.trace_overhead_ratio"] = median(traced) / median(plain)
	o.metrics = m
	fmt.Fprintf(rc.log, "%s: probe: %d traced and %d plain passes, median %.2f s and %.2f s\n",
		rc.workload, len(traced), len(plain), median(traced), median(plain))
	return o, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func probePass(ctx context.Context, rc *runConfig, in *traceInput, tr *tracer, s samples, o *outcome, dir string) error {
	root := tr.root("probe.pass")
	defer root.end()
	cfg := cli.ImportConfig(cli.Options{})
	opt := deriveOptions()

	view, err := probeImport(in.raw, cfg, root, s)
	if err != nil {
		return fmt.Errorf("probe import: %w", err)
	}

	sp := root.child("core.derive")
	results, err := core.DeriveAll(ctx, view, opt)
	s.add("core.derive_ms", ms(sp.end()))
	if err != nil {
		return err
	}
	seq := opt
	seq.Parallelism = 1
	sp = root.child("core.derive_seq")
	_, err = core.DeriveAll(ctx, view, seq)
	s.add("core.derive_seq_ms", ms(sp.end()))
	if err != nil {
		return err
	}

	labels := view.TypeLabels()
	sp = root.child("analysis.doc")
	for _, l := range labels {
		analysis.GenerateDoc(view, results, l)
	}
	s.add("analysis.doc_ms", ms(sp.end()))
	sp = root.child("analysis.violations")
	analysis.FindViolations(view, results)
	s.add("analysis.violations_ms", ms(sp.end()))
	sp = root.child("analysis.checks")
	_, err = analysis.CheckAll(view, fs.DocumentedRules())
	s.add("analysis.checks_ms", ms(sp.end()))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	sp = root.child("analysis.rules_json")
	err = analysis.WriteRulesJSON(&buf, view, results, false)
	s.add("analysis.rules_json_ms", ms(sp.end()))
	if err != nil {
		return err
	}
	want := render(view, results)

	sp = root.child("core.stream")
	sd := core.NewStreamDeriver(db.New(cfg), opt)
	r, err := trace.NewReader(bytes.NewReader(in.raw))
	if err != nil {
		return err
	}
	if _, err := sd.Consume(r); err != nil {
		return err
	}
	fview, fresults, st, err := sd.Derive(ctx)
	sd.Close()
	s.add("core.stream_ms", ms(sp.end()))
	if err != nil {
		return err
	}
	s.add("core.stream_spec_passes", float64(st.SpecPasses))
	s.add("core.stream_reuse_ratio", ratio(float64(st.Delta.Reused), float64(st.Delta.Groups)))
	o.check(render(fview, fresults).equal(want), rc.log, "fused pipeline output differs from the phased one")

	appended, err := probeDurable(ctx, rc, in, tr, root, s, o, filepath.Join(dir, "replica"))
	if err != nil {
		return fmt.Errorf("probe durable append: %w", err)
	}
	if err := probeServer(ctx, rc, in, appended, tr, root, s, o, filepath.Join(dir, "server")); err != nil {
		return fmt.Errorf("probe server: %w", err)
	}
	return nil
}

// probeImport decodes the trace in chunks and feeds each chunk to a
// fresh store event by event (db.Consume's own loop), so decoding and
// import are timed by separate spans. It returns the sealed view.
func probeImport(raw []byte, cfg db.Config, root *span, s samples) (*db.DB, error) {
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	live := db.New(cfg)
	buf := make([]trace.Event, 4096)
	var decode, consume time.Duration
	events := 0
	for done := false; !done; {
		sp := root.child("trace.decode")
		n := 0
		for ; n < len(buf); n++ {
			err := r.Read(&buf[n])
			if errors.Is(err, io.EOF) {
				done = true
				break
			}
			if err != nil {
				return nil, err
			}
		}
		decode += sp.end()
		sp = root.child("db.consume")
		for i := range buf[:n] {
			if err := live.Add(&buf[i]); err != nil {
				return nil, err
			}
		}
		consume += sp.end()
		events += n
	}
	sp := root.child("db.seal")
	view := live.Seal()
	s.add("db.seal_ms", ms(sp.end()))
	s.add("trace.decode_ms", ms(decode))
	s.add("db.consume_ms", ms(consume))
	s.add("trace.events", float64(events))
	s.add("trace.bytes", float64(len(raw)))
	s.add("db.groups", float64(len(view.Groups())))
	return view, nil
}

// newestSize is the size of the store's newest segment of a kind.
func newestSize(st *segstore.Store, kind string) int64 {
	m := st.Manifest()
	for i := len(m) - 1; i >= 0; i-- {
		if m[i].Kind == kind {
			return m[i].Size
		}
	}
	return 0
}

// probeDurable replays lockdocd's durable append path with library
// calls, step for step as the server's namespace does it: the base
// trace is stored, streamed into a StreamDeriver and compacted; every
// appended block is then stored, consumed, derived (the delta pass),
// checked against the documented rules and compacted. Each append is
// one operation in the span file. The store is then reopened and every
// group hydrated, and the reopened state must render like the live one,
// which is returned.
func probeDurable(ctx context.Context, rc *runConfig, in *traceInput, tr *tracer, root *span, s samples, o *outcome, dir string) (rendering, error) {
	sp := in.split(rc.size.probeAppends)
	cfg := cli.ImportConfig(cli.Options{})
	opt := deriveOptions()
	st, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		return rendering{}, err
	}
	defer func() { st.Close() }()
	sd := core.NewStreamDeriver(db.New(cfg), opt)
	defer sd.Close()

	c := root.child("probe.base")
	if err := st.ResetTrace(sp.prefix); err != nil {
		return rendering{}, err
	}
	r, err := trace.NewReader(bytes.NewReader(sp.prefix))
	if err != nil {
		return rendering{}, err
	}
	if _, err := sd.Consume(r); err != nil {
		return rendering{}, err
	}
	view, results, _, err := sd.Derive(ctx)
	if err != nil {
		return rendering{}, err
	}
	if err := st.Compact(view); err != nil {
		return rendering{}, err
	}
	c.end()

	rules := fs.DocumentedRules()
	var written, appended int64
	for _, b := range sp.blocks {
		op := tr.root("probe.append")
		c := op.child("segstore.append_trace")
		err := st.AppendTrace(b)
		s.add("segstore.append_trace_ms", ms(c.end()))
		if err != nil {
			return rendering{}, err
		}
		written += newestSize(st, segstore.KindTrace)
		c = op.child("db.append_consume")
		_, err = sd.Consume(trace.NewContinuationReader(bytes.NewReader(b), trace.ReaderOptions{}))
		c.end()
		if err != nil {
			return rendering{}, err
		}
		c = op.child("core.delta")
		next, nresults, dst, err := sd.Derive(ctx)
		s.add("core.delta_ms", ms(c.end()))
		if err != nil {
			return rendering{}, err
		}
		s.add("core.delta_remined_ratio", ratio(float64(dst.Delta.Remined), float64(dst.Delta.Groups)))
		s.add("db.dirty_groups", float64(next.DirtyGroupsSince(view)))
		c = op.child("analysis.checks")
		_, err = analysis.CheckAll(next, rules)
		c.end()
		if err != nil {
			return rendering{}, err
		}
		c = op.child("segstore.compact")
		err = st.Compact(next)
		s.add("segstore.compact_ms", ms(c.end()))
		if err != nil {
			return rendering{}, err
		}
		state := newestSize(st, segstore.KindState)
		s.add("segstore.compact_bytes", float64(state))
		written += state
		appended += int64(len(b))
		op.end()
		view, results = next, nresults
	}
	s.add("segstore.write_amp", ratio(float64(written), float64(appended)))
	var stored int64
	for _, e := range st.Manifest() {
		stored += e.Size
	}
	s.add("segstore.store_ratio", ratio(float64(stored), float64(int64(len(sp.prefix))+appended)))
	want := render(view, results)
	if err := st.Close(); err != nil {
		return rendering{}, err
	}

	c = root.child("segstore.reopen")
	st, err = segstore.Open(dir, segstore.Options{})
	if err != nil {
		return rendering{}, err
	}
	rview, ok, err := st.LoadState()
	s.add("segstore.reopen_ms", ms(c.end()))
	if err != nil || !ok {
		return rendering{}, fmt.Errorf("reopened store has no state: %v", err)
	}
	c = root.child("segstore.hydrate")
	for _, g := range rview.Groups() {
		if err := rview.Hydrate(g); err != nil {
			return rendering{}, err
		}
	}
	s.add("segstore.hydrate_ms", ms(c.end()))
	rresults, err := core.DeriveAll(ctx, rview, opt)
	if err != nil {
		return rendering{}, err
	}
	o.check(render(rview, rresults).equal(want), rc.log, "reopened store renders differently from the live store")
	return want, nil
}

// probeServer times lockdocd's handlers directly (Handler with a
// recorder, no network) on a store-backed server holding the same base
// trace and appends as probeDurable, then drives it over HTTP with the
// serve-read mix at a low open-loop rate to measure what the network
// and the client add, and finally times a restart from its store.
func probeServer(ctx context.Context, rc *runConfig, in *traceInput, want rendering, tr *tracer, root *span, s samples, o *outcome, dir string) error {
	sp := in.split(rc.size.probeAppends)
	srv := server.New(server.Config{StoreRoot: dir})
	defer srv.BeginShutdown()
	h := srv.Handler()
	call := func(parent *span, name, method, target string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, target, rd)
		c := parent.child(name)
		h.ServeHTTP(rec, req)
		return rec, c.end()
	}
	ns := "/v1/ns/" + benchNS
	if rec, _ := call(root, "server.upload", http.MethodPost, ns+"/traces", sp.prefix); rec.Code != http.StatusCreated {
		return fmt.Errorf("upload answered %d: %s", rec.Code, rec.Body)
	}
	for _, b := range sp.blocks {
		rec, d := call(root, "server.append", http.MethodPost, ns+"/traces?mode=append", b)
		s.add("server.handler_ms.append", ms(d))
		o.check(rec.Code == http.StatusCreated, rc.log, "append answered %d", rec.Code)
	}
	var handlerDoc []float64
	for i := 0; i < 20; i++ {
		l := want.labels[i%len(want.labels)]
		rec, d := call(root, "server.doc", http.MethodGet, ns+"/doc?type="+url.QueryEscape(l), nil)
		handlerDoc = append(handlerDoc, ms(d))
		s.add("server.handler_ms.doc", ms(d))
		o.check(rec.Code == http.StatusOK && rec.Body.String() == want.docs[l], rc.log, "/doc %s differs from the library render", l)
		for _, q := range []struct{ metric, target string }{
			{"server.handler_ms.rules", ns + "/rules"},
			{"server.handler_ms.rules_tac", ns + "/rules?tac=" + strconv.FormatFloat(0.6+0.001*float64(i), 'f', 3, 64)},
			{"server.handler_ms.violations", ns + "/violations?summary=true"},
			{"server.handler_ms.checks", ns + "/checks"},
			{"server.handler_ms.stats", ns + "/stats"},
		} {
			rec, d := call(root, strings.TrimPrefix(q.metric, "server.handler_ms."), http.MethodGet, q.target, nil)
			s.add(q.metric, ms(d))
			o.check(rec.Code == http.StatusOK, rc.log, "%s answered %d", q.target, rec.Code)
		}
	}

	metrics := func() (hits, misses float64) {
		rec, _ := call(nil, "", http.MethodGet, "/metrics", nil)
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			f := strings.Fields(line)
			if len(f) != 2 {
				continue
			}
			switch f[0] {
			case "lockdocd_cache_hits_total":
				hits, _ = strconv.ParseFloat(f[1], 64)
			case "lockdocd_cache_misses_total":
				misses, _ = strconv.ParseFloat(f[1], 64)
			}
		}
		return hits, misses
	}
	sv := newServed(srv)
	reqs := serveMix(rc.seed, 4096, want.labels, tacList(rc.size.tacValues))
	var mu sync.Mutex
	var clientDoc []float64
	hits0, misses0 := metrics()
	dur := min(max(rc.measure/10, 200*time.Millisecond), time.Second)
	ls := openLoop(ctx, rc.size.probeRate, dur, 2, func(i int) error {
		r := reqs[i%len(reqs)]
		c := tr.root("http." + kindNames[r.kind])
		t0 := time.Now()
		body, err := sv.issue(ctx, r)
		d := time.Since(t0)
		c.end()
		if err != nil {
			return err
		}
		if r.kind == reqDoc {
			mu.Lock()
			clientDoc = append(clientDoc, ms(d))
			mu.Unlock()
			if string(body) != want.docs[r.arg] {
				return errMismatch
			}
		}
		return nil
	})
	hits1, misses1 := metrics()
	sv.close()
	o.attempted += ls.sent
	o.failed += ls.failed
	s.add("bench.gen_lag_p99_ms", quantile(ls.lag, 0.99))
	s.add("server.cache_hit_ratio", ratio(hits1-hits0, hits1-hits0+misses1-misses0))
	if len(clientDoc) > 0 {
		s.add("http.overhead_ms", median(clientDoc)-median(handlerDoc))
	}

	c := root.child("server.reopen")
	srv2 := server.New(server.Config{StoreRoot: dir})
	defer srv2.BeginShutdown()
	n, err := srv2.OpenStores()
	if err != nil || n != 1 {
		return fmt.Errorf("reopen: %d namespaces, %v", n, err)
	}
	rec := httptest.NewRecorder()
	srv2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, ns+"/doc?type="+url.QueryEscape(want.labels[0]), nil))
	s.add("server.reopen_ms", ms(c.end()))
	o.check(rec.Code == http.StatusOK && rec.Body.String() == want.docs[want.labels[0]], rc.log, "/doc after reopen differs from the library render")
	return nil
}

var kindNames = map[reqKind]string{
	reqDoc: "doc", reqRules: "rules", reqTac: "rules_tac", reqViolations: "violations", reqChecks: "checks", reqStats: "stats",
}
