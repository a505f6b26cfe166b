package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lockdoc/internal/analysis"
	"lockdoc/internal/apiclient"
	"lockdoc/internal/cli"
	"lockdoc/internal/core"
	"lockdoc/internal/fs"
	"lockdoc/internal/resilience"
	"lockdoc/internal/server"
)

// benchNS is the lockdocd namespace the workloads load their trace into.
const benchNS = "bench"

// served is one in-process lockdocd behind an httptest listener, with a
// typed client that opens at most two connections and never retries, so
// a refused request surfaces as a failure instead of a slow success.
type served struct {
	srv  *server.Server
	ts   *httptest.Server
	hc   *http.Client
	root *apiclient.Client // unbound: namespace administration
	c    *apiclient.Client // bound to benchNS
}

func startServer(cfg server.Config) *served { return newServed(server.New(cfg)) }

func newServed(srv *server.Server) *served {
	ts := httptest.NewServer(srv.Handler())
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	root := apiclient.New(ts.URL, apiclient.WithHTTPClient(hc), apiclient.WithBackoff(resilience.Backoff{Attempts: 1}))
	return &served{srv: srv, ts: ts, hc: hc, root: root, c: root.Namespace(benchNS)}
}

func (s *served) close() {
	s.srv.BeginShutdown()
	s.hc.CloseIdleConnections()
	s.ts.Close()
}

// reqKind is one route of the read mix.
type reqKind int

const (
	reqDoc reqKind = iota
	reqRules
	reqTac
	reqViolations
	reqChecks
	reqStats
)

type request struct {
	kind reqKind
	arg  string // type label of a /doc, threshold of a /rules?tac=
}

func (r request) key() string { return strconv.Itoa(int(r.kind)) + "|" + r.arg }

// mixCycle fixes the read mix's route shares exactly: 60% /doc, 15%
// the default /rules (a cache hit), 10% /rules?tac=, and 5% each
// /violations?summary=true, /checks and /stats. /doc, the cheapest
// route, holds more than half the mix, so the median latency falls
// inside one route's distribution rather than on the boundary between
// two, where it would jump from run to run.
var mixCycle = [20]reqKind{
	reqDoc, reqRules, reqDoc, reqTac, reqDoc, reqDoc, reqViolations, reqDoc, reqRules, reqDoc,
	reqDoc, reqChecks, reqDoc, reqTac, reqDoc, reqRules, reqDoc, reqStats, reqDoc, reqDoc,
}

// serveMix lays out n requests of the read mix. /doc requests take the
// type labels in turn from a seeded starting point; /rules?tac= draws
// its threshold from tacs, more values than the server's rule cache
// holds, so some miss.
func serveMix(seed int64, n int, labels, tacs []string) []request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, n)
	docs := rng.Intn(len(labels))
	for i := range out {
		switch k := mixCycle[i%len(mixCycle)]; k {
		case reqDoc:
			out[i] = request{k, labels[docs%len(labels)]}
			docs++
		case reqTac:
			out[i] = request{k, tacs[rng.Intn(len(tacs))]}
		default:
			out[i] = request{kind: k}
		}
	}
	return out
}

// tacList returns n distinct accept thresholds in [0.5, 1).
func tacList(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = strconv.FormatFloat(0.5+0.49*float64(i)/float64(n), 'f', 4, 64)
	}
	return out
}

// issue sends one request and returns its body: the documentation
// text, or the JSON payload of the response envelope.
func (s *served) issue(ctx context.Context, r request) ([]byte, error) {
	switch r.kind {
	case reqDoc:
		doc, err := s.c.Doc(ctx, r.arg)
		return []byte(doc), err
	case reqRules:
		return s.c.Rules(ctx, nil)
	case reqTac:
		return s.c.Rules(ctx, url.Values{"tac": {r.arg}})
	case reqViolations:
		return s.c.Violations(ctx, url.Values{"summary": {"true"}})
	case reqChecks:
		return s.c.Checks(ctx)
	default:
		return s.c.Stats(ctx)
	}
}

// libRef is what every request of the read mix must return, rendered by
// library calls on a phased import of the trace.
type libRef struct {
	render rendering
	rules  []byte            // compact JSON
	tac    map[string][]byte // compact JSON by threshold
	viols  []byte
	checks []byte
	groups int
}

// violRow mirrors the rows of /violations?summary=true.
type violRow struct {
	Type     string `json:"type"`
	Events   uint64 `json:"events"`
	Members  int    `json:"members"`
	Contexts int    `json:"contexts"`
}

func libraryReference(ctx context.Context, path string, tacs []string) (*libRef, error) {
	d, err := cli.OpenDB(path, cli.Options{})
	if err != nil {
		return nil, err
	}
	results, err := core.DeriveAll(ctx, d, deriveOptions())
	if err != nil {
		return nil, err
	}
	ref := &libRef{render: render(d, results), tac: make(map[string][]byte, len(tacs)), groups: len(d.Groups())}
	rulesJSON := func(results []core.Result) ([]byte, error) {
		var b bytes.Buffer
		if err := analysis.WriteRulesJSON(&b, d, results, false); err != nil {
			return nil, err
		}
		return compact(b.Bytes())
	}
	if ref.rules, err = rulesJSON(results); err != nil {
		return nil, err
	}
	for _, t := range tacs {
		opt := deriveOptions()
		if opt.AcceptThreshold, err = strconv.ParseFloat(t, 64); err != nil {
			return nil, err
		}
		res, err := core.DeriveAll(ctx, d, opt)
		if err != nil {
			return nil, err
		}
		if ref.tac[t], err = rulesJSON(res); err != nil {
			return nil, err
		}
	}
	sums := analysis.SummarizeViolations(d, analysis.FindViolations(d, results))
	rows := make([]violRow, 0, len(sums))
	for _, s := range sums {
		rows = append(rows, violRow{Type: s.TypeLabel, Events: s.Events, Members: s.Members, Contexts: s.Contexts})
	}
	if ref.viols, err = json.Marshal(rows); err != nil {
		return nil, err
	}
	checks, err := analysis.CheckAll(d, fs.DocumentedRules())
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := analysis.WriteChecksJSON(&b, checks); err != nil {
		return nil, err
	}
	if ref.checks, err = compact(b.Bytes()); err != nil {
		return nil, err
	}
	return ref, nil
}

func compact(b []byte) ([]byte, error) {
	var out bytes.Buffer
	err := json.Compact(&out, b)
	return out.Bytes(), err
}

// verify sends every distinct request of reqs once, checks each answer
// against the library reference, and returns the verified bodies by
// request key; later answers must repeat them byte for byte.
func (s *served) verify(ctx context.Context, ref *libRef, reqs []request) (map[string][]byte, error) {
	want := make(map[string][]byte)
	for _, r := range reqs {
		if _, ok := want[r.key()]; ok {
			continue
		}
		body, err := s.issue(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("request %s: %w", r.key(), err)
		}
		var ok bool
		switch r.kind {
		case reqDoc:
			ok = string(body) == ref.render.docs[r.arg]
		case reqRules:
			ok = compactEqual(body, ref.rules)
		case reqTac:
			ok = compactEqual(body, ref.tac[r.arg])
		case reqViolations:
			ok = compactEqual(body, ref.viols)
		case reqChecks:
			ok = compactEqual(body, ref.checks)
		default:
			var st struct {
				Groups int `json:"groups"`
			}
			ok = json.Unmarshal(body, &st) == nil && st.Groups == ref.groups
		}
		if !ok {
			return nil, fmt.Errorf("request %s: served answer differs from the library reference", r.key())
		}
		want[r.key()] = body
	}
	return want, nil
}

func compactEqual(body, want []byte) bool {
	c, err := compact(body)
	return err == nil && bytes.Equal(c, want)
}

var errMismatch = errors.New("answer differs from the reference")

// loadStats is what one load phase observed. Latencies and lags are in
// milliseconds; failed requests have no latency.
type loadStats struct {
	lat, lag     []float64
	sent, failed int
}

func (l *loadStats) add(o loadStats) {
	l.lat = append(l.lat, o.lat...)
	l.lag = append(l.lag, o.lag...)
	l.sent += o.sent
	l.failed += o.failed
}

// openLoop calls op(0), op(1), ... on a fixed schedule of rate calls
// per second until dur has passed or ctx is done, from `workers`
// goroutines. A call that finds every worker busy waits, and the wait
// counts: latency runs from when the call was due. lag records how late
// each call actually started.
func openLoop(ctx context.Context, rate float64, dur time.Duration, workers int, op func(i int) error) loadStats {
	n := int(rate * dur.Seconds())
	start := time.Now()
	var next atomic.Int64
	parts := make([]loadStats, workers)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(ls *loadStats) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if !sleepUntil(ctx, due) {
					return
				}
				ls.lag = append(ls.lag, ms(time.Since(due)))
				ls.sent++
				if err := op(i); err != nil {
					ls.failed++
					continue
				}
				ls.lat = append(ls.lat, ms(time.Since(due)))
			}
		}(&parts[w])
	}
	wg.Wait()
	var out loadStats
	for _, p := range parts {
		out.add(p)
	}
	return out
}

func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// serveRead is lockdocd answering reads of a loaded kernel trace: no
// ingest and no store, so it stresses routing, the rule cache,
// rendering and JSON. Set-up is server.New through the upload to the
// first /doc answer. The measured phase runs the read mix open-loop at
// a fixed rate on two connections, timing each request from its due
// time; throughput is requests per second of the process's CPU time,
// the rate one fully used CPU would serve. It is read from CPU time
// rather than from a closed loop at saturation because the rate a
// closed loop reaches on a shared host drifts two to three times as
// much from run to run. Every answer must repeat the one verified
// against the library reference.
func serveRead(ctx context.Context, rc *runConfig, in *traceInput) (*outcome, error) {
	tacs := tacList(rc.size.tacValues)
	ref, err := libraryReference(ctx, in.path, tacs)
	if err != nil {
		return nil, fmt.Errorf("library reference: %w", err)
	}
	labels := ref.render.labels

	var s *served
	setup := make([]float64, rc.size.setupReps)
	for i := range setup {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		s = startServer(server.Config{})
		if _, err := s.c.Upload(ctx, in.raw); err != nil {
			s.close()
			return nil, fmt.Errorf("upload: %w", err)
		}
		doc, err := s.c.Doc(ctx, labels[0])
		setup[i] = time.Since(t0).Seconds()
		if err != nil || doc != ref.render.docs[labels[0]] {
			s.close()
			return nil, fmt.Errorf("first /doc after upload: %v", firstErr(err, errMismatch))
		}
	}
	defer s.close()

	reqs := serveMix(rc.seed, 1<<14, labels, tacs)
	want, err := s.verify(ctx, ref, reqs)
	if err != nil {
		return nil, err
	}
	op := func(i int) error {
		r := reqs[i%len(reqs)]
		body, err := s.issue(ctx, r)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, want[r.key()]) {
			return errMismatch
		}
		return nil
	}
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	ls := openLoop(ctx, rc.size.serveRate, rc.measure, 2, op)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	heap := heapMB()
	if len(ls.lat) == 0 {
		return nil, errors.New("no request succeeded")
	}
	perCPU := float64(len(ls.lat)) / (cpu1 - cpu0).Seconds()
	fmt.Fprintf(rc.log, "serve-read: %d labels, setup %.3f s, %d requests at %.0f/s, p50 %.2f ms p99 %.2f ms, lag p99 %.2f ms, %.0f requests per CPU-second, %d failed\n",
		len(labels), median(setup), ls.sent, rc.size.serveRate, median(ls.lat), quantile(ls.lat, 0.99),
		quantile(ls.lag, 0.99), perCPU, ls.failed)
	return &outcome{
		attempted: ls.sent,
		failed:    ls.failed,
		metrics: map[string]float64{
			"setup_s":          median(setup),
			"op_p50_ms":        median(ls.lat),
			"op_p90_ms":        quantile(ls.lat, 0.9),
			"throughput_per_s": perCPU,
			"heap_mb":          heap,
		},
	}, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
