// The declarative route table. Every API endpoint is one route value:
// method, pattern, namespace-resolution mode, admission/deprecation
// flags and declarative query-parameter validators. dispatch replaces
// the old hand-written ServeMux wiring, so 404/405/400 envelopes,
// admission control, namespace resolution, lazy re-open of evicted
// tenants and the per-endpoint latency labels are uniform across the
// whole surface — and RouteInventory renders the same table as
// documentation, pinned by a golden test.
package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// nsMode selects how dispatch resolves a route's namespace.
type nsMode int

const (
	nsNone     nsMode = iota // no namespace (healthz, metrics, ns list)
	nsDefault                // legacy alias: the default namespace
	nsName                   // {ns} validated but not resolved (PUT creates)
	nsExisting               // {ns} must exist, else 404
	nsCreate                 // {ns} auto-created (trace upload)
)

// param declares one query parameter of a route: its name, whether a
// request must carry it, an example value (for the missing-parameter
// message and the inventory), and an optional validator run when the
// parameter is present.
type param struct {
	name     string
	required bool
	example  string
	check    func(string) error
	doc      string
}

// route is one row of the API surface.
type route struct {
	method        string
	pattern       string // path pattern; {ns} captures the namespace id
	label         string // latency-histogram endpoint label
	mode          nsMode
	admit         bool // subject to admission control (rate/concurrency/drain)
	deprecated    bool // legacy alias: answered with a Deprecation header
	wantsSnapshot bool // needs a published snapshot; evicted namespaces re-open first
	params        []param
	handler       func(*Server, *namespace, http.ResponseWriter, *http.Request)
	doc           string

	segs []string // compiled pattern segments
}

func checkFloat(name, rangeDoc string, ok func(float64) bool) func(string) error {
	return func(v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !ok(f) {
			return fmt.Errorf("bad %s %q: want a float in %s", name, v, rangeDoc)
		}
		return nil
	}
}

func checkNonNegInt(name string) func(string) error {
	return func(v string) error {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("bad %s %q: want a non-negative integer", name, v)
		}
		return nil
	}
}

func checkBool(name string) func(string) error {
	return func(v string) error {
		if _, err := strconv.ParseBool(v); err != nil {
			return fmt.Errorf("bad %s %q: want a boolean", name, v)
		}
		return nil
	}
}

// deriveParams are the shared derivation knobs of every query route
// that derives rules (they form the key of a snapshot's selections).
var deriveParams = []param{
	{name: "tac", example: "0.9", doc: "accept threshold",
		check: checkFloat("tac", "(0, 1]", func(f float64) bool { return f > 0 && f <= 1 })},
	{name: "tco", example: "0.1", doc: "cutoff threshold",
		check: checkFloat("tco", "[0, 1]", func(f float64) bool { return f >= 0 && f <= 1 })},
	{name: "max_locks", example: "2", doc: "hypothesis lock-set bound",
		check: checkNonNegInt("max_locks")},
	{name: "naive", example: "true", doc: "disable counterexample filtering",
		check: checkBool("naive")},
}

func withParams(extra ...param) []param {
	return append(append([]param{}, deriveParams...), extra...)
}

var (
	typeParam = param{name: "type", example: "inode:ext4", doc: "observation-group type label"}
	hypsParam = param{name: "hypotheses", example: "true", doc: "include rejected hypotheses"}
	maxParam  = param{name: "max", example: "20", doc: "violation examples per group",
		check: checkNonNegInt("max")}
	summaryParam = param{name: "summary", example: "true", doc: "per-type summary rows instead of examples"}
	modeParam    = param{name: "mode", example: "append", doc: "replace (default) or append",
		check: func(v string) error {
			if v != "replace" && v != "append" {
				return fmt.Errorf("bad mode %q: want replace or append", v)
			}
			return nil
		}}
	docTypeParam = param{name: "type", required: true, example: "inode:ext4",
		doc: "observation-group type label"}
)

// buildRoutes compiles the API surface. Order matters only for the
// inventory rendering; matching is exact on (method, pattern).
func buildRoutes() []route {
	read := func(route memoRoute, build bodyFunc) func(*Server, *namespace, http.ResponseWriter, *http.Request) {
		return func(s *Server, ns *namespace, w http.ResponseWriter, r *http.Request) {
			s.serveRead(ns, w, r, route, build)
		}
	}
	rules := read(memoRules, (*Server).rulesBody)
	checks := read(memoChecks, (*Server).checksBody)
	violations := read(memoViolations, (*Server).violationsBody)
	stats := read(memoStats, (*Server).statsBody)
	doc := func(s *Server, ns *namespace, w http.ResponseWriter, r *http.Request) {
		s.handleDoc(ns, w, r)
	}
	traces := func(s *Server, ns *namespace, w http.ResponseWriter, r *http.Request) {
		s.handleTraceUpload(ns, w, r)
	}
	rts := []route{
		{method: "GET", pattern: "/healthz", label: "/healthz", mode: nsNone,
			handler: func(s *Server, _ *namespace, w http.ResponseWriter, r *http.Request) { s.handleHealthz(w, r) },
			doc:     "liveness probe: status and default-namespace generation"},
		{method: "GET", pattern: "/metrics", label: "/metrics", mode: nsNone,
			handler: func(s *Server, _ *namespace, w http.ResponseWriter, r *http.Request) { s.handleMetrics(w, r) },
			doc:     "Prometheus text exposition of the full registry"},

		{method: "GET", pattern: "/v1/ns", label: "/v1/ns", mode: nsNone, admit: true,
			handler: (*Server).handleNsList,
			doc:     "list namespaces with epoch, footprint and eviction state"},
		{method: "PUT", pattern: "/v1/ns/{ns}", label: "/v1/ns/{ns}", mode: nsName, admit: true,
			handler: (*Server).handleNsPut,
			doc:     "create a namespace (201) or confirm it exists (200)"},
		{method: "GET", pattern: "/v1/ns/{ns}", label: "/v1/ns/{ns}", mode: nsExisting, admit: true,
			handler: (*Server).handleNsGet,
			doc:     "inspect one namespace without re-opening it"},
		{method: "DELETE", pattern: "/v1/ns/{ns}", label: "/v1/ns/{ns}", mode: nsExisting, admit: true,
			handler: (*Server).handleNsDelete,
			doc:     "delete a namespace and its owned store directory"},

		{method: "GET", pattern: "/v1/ns/{ns}/rules", label: "/v1/ns/{ns}/rules", mode: nsExisting,
			admit: true, wantsSnapshot: true, params: withParams(typeParam, hypsParam), handler: rules,
			doc: "mined locking rules"},
		{method: "GET", pattern: "/v1/ns/{ns}/checks", label: "/v1/ns/{ns}/checks", mode: nsExisting,
			admit: true, wantsSnapshot: true, handler: checks,
			doc: "documented-rule verdicts"},
		{method: "GET", pattern: "/v1/ns/{ns}/violations", label: "/v1/ns/{ns}/violations", mode: nsExisting,
			admit: true, wantsSnapshot: true, params: withParams(maxParam, summaryParam), handler: violations,
			doc: "rule violations with example accesses"},
		{method: "GET", pattern: "/v1/ns/{ns}/doc", label: "/v1/ns/{ns}/doc", mode: nsExisting,
			admit: true, wantsSnapshot: true, params: withParams(docTypeParam), handler: doc,
			doc: "generated locking-documentation comment (text/plain)"},
		{method: "GET", pattern: "/v1/ns/{ns}/stats", label: "/v1/ns/{ns}/stats", mode: nsExisting,
			admit: true, wantsSnapshot: true, handler: stats,
			doc: "ingestion statistics and corruption report"},
		{method: "POST", pattern: "/v1/ns/{ns}/traces", label: "/v1/ns/{ns}/traces", mode: nsCreate,
			admit: true, params: []param{modeParam}, handler: traces,
			doc: "upload a trace (replace) or a continuation (append); creates the namespace"},

		// Legacy single-tenant aliases for the default namespace. Kept
		// route-for-route so every pre-namespace client, test and curl
		// example works unchanged; answered with a Deprecation header
		// pointing at the /v1/ns/default successor.
		{method: "GET", pattern: "/v1/rules", label: "/v1/rules", mode: nsDefault,
			admit: true, deprecated: true, wantsSnapshot: true, params: withParams(typeParam, hypsParam),
			handler: rules, doc: "alias of /v1/ns/default/rules"},
		{method: "GET", pattern: "/v1/checks", label: "/v1/checks", mode: nsDefault,
			admit: true, deprecated: true, wantsSnapshot: true, handler: checks,
			doc: "alias of /v1/ns/default/checks"},
		{method: "GET", pattern: "/v1/violations", label: "/v1/violations", mode: nsDefault,
			admit: true, deprecated: true, wantsSnapshot: true, params: withParams(maxParam, summaryParam),
			handler: violations, doc: "alias of /v1/ns/default/violations"},
		{method: "GET", pattern: "/v1/doc", label: "/v1/doc", mode: nsDefault,
			admit: true, deprecated: true, wantsSnapshot: true, params: withParams(docTypeParam),
			handler: doc, doc: "alias of /v1/ns/default/doc"},
		{method: "GET", pattern: "/v1/stats", label: "/v1/stats", mode: nsDefault,
			admit: true, deprecated: true, wantsSnapshot: true, handler: stats,
			doc: "alias of /v1/ns/default/stats"},
		{method: "POST", pattern: "/v1/traces", label: "/v1/traces", mode: nsDefault,
			admit: true, deprecated: true, params: []param{modeParam}, handler: traces,
			doc: "alias of /v1/ns/default/traces"},
	}
	for i := range rts {
		rts[i].segs = splitPath(rts[i].pattern)
	}
	return rts
}

func splitPath(p string) []string {
	p = strings.TrimPrefix(p, "/")
	if p == "" {
		return nil
	}
	return strings.Split(p, "/")
}

// matchSegs matches a compiled pattern against path segments, capturing
// the {ns} segment.
func matchSegs(pat, segs []string) (nsVal string, ok bool) {
	if len(pat) != len(segs) {
		return "", false
	}
	for i, p := range pat {
		if p == "{ns}" {
			nsVal = segs[i]
			continue
		}
		if p != segs[i] {
			return "", false
		}
	}
	return nsVal, true
}

// dispatch resolves and serves one request through the route table and
// returns the latency-histogram label of whatever handled it. The
// stages run in a fixed order: match (404/405) → admission (drain,
// global rate, concurrency) → deprecation header → namespace
// resolution (validation, existence, creation) → per-namespace
// admission → lazy re-open of evicted namespaces → no-snapshot 503 →
// declarative parameter validation (400) → handler. The no-snapshot
// check deliberately precedes parameter validation: the pre-namespace
// server answered 503 before looking at parameters, and clients pin
// that ordering.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request) string {
	segs := splitPath(r.URL.Path)
	var rt *route
	var nsVal string
	var allowed []string
	for _, table := range [][]route{s.routes, s.testRoutes} {
		for i := range table {
			v, ok := matchSegs(table[i].segs, segs)
			if !ok {
				continue
			}
			if table[i].method == r.Method {
				rt, nsVal = &table[i], v
				break
			}
			allowed = append(allowed, table[i].method)
		}
		if rt != nil {
			break
		}
	}
	if rt == nil {
		if len(allowed) > 0 {
			sort.Strings(allowed)
			w.Header().Set("Allow", strings.Join(allowed, ", "))
			writeErr(w, http.StatusMethodNotAllowed,
				"method %s not allowed for %s", r.Method, r.URL.Path)
		} else {
			writeErr(w, http.StatusNotFound, "unknown route %s", r.URL.Path)
		}
		return "other"
	}
	label := rt.label

	if rt.admit {
		if s.stopCtx.Err() != nil {
			s.shed(w, "shutdown", http.StatusServiceUnavailable, time.Second,
				"server is draining for shutdown")
			return label
		}
		if ok, wait := s.limiter.Allow(); !ok {
			s.shed(w, "rate", http.StatusTooManyRequests, wait,
				"rate limit exceeded; retry after the indicated delay")
			return label
		}
		if !s.admission.TryAcquire() {
			s.shed(w, "concurrency", http.StatusServiceUnavailable, time.Second,
				"concurrency limit reached (%d requests in flight)", s.admission.InUse())
			return label
		}
		defer s.admission.Release()
		// Derive the request context from the drain context so
		// BeginShutdown cancels in-flight derivations at their next
		// group boundary instead of waiting them out.
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		defer context.AfterFunc(s.stopCtx, cancel)()
		r = r.WithContext(ctx)
	}

	if rt.deprecated {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", "</v1/ns/"+DefaultNamespace+strings.TrimPrefix(r.URL.Path, "/v1")+`>; rel="successor-version"`)
	}

	var ns *namespace
	switch rt.mode {
	case nsNone:
	case nsDefault:
		ns = s.defaultNS()
	case nsName, nsExisting, nsCreate:
		if !validNsName(nsVal) {
			writeErr(w, http.StatusBadRequest,
				"bad namespace %q: want 1-64 characters of [A-Za-z0-9_-]", nsVal)
			return label
		}
		r.SetPathValue("ns", nsVal)
		switch rt.mode {
		case nsExisting:
			if ns = s.reg.get(nsVal); ns == nil {
				writeErr(w, http.StatusNotFound, "unknown namespace %q", nsVal)
				return label
			}
		case nsCreate:
			var err error
			if ns, err = s.ensureNamespace(nsVal); err != nil {
				if err == errNsLimit {
					writeErr(w, http.StatusTooManyRequests,
						"namespace limit reached (%d); delete one first", s.cfg.MaxNamespaces)
				} else {
					writeErr(w, http.StatusInternalServerError, "creating namespace %q: %s", nsVal, err)
				}
				return label
			}
		}
	}

	if ns != nil {
		ns.refs.Add(1)
		defer ns.refs.Add(-1)
		ns.touch()
		ns.nm.requests.Inc()
		if ok, wait := ns.limiter.Allow(); !ok {
			ns.nm.shed.Inc()
			s.shed(w, "ns_rate", http.StatusTooManyRequests, wait,
				"namespace %s rate limit exceeded; retry after the indicated delay", ns.name)
			return label
		}
	}

	if rt.wantsSnapshot && ns != nil {
		if err := ns.ensureOpen(); err != nil {
			writeErr(w, http.StatusServiceUnavailable, "reopening namespace %s: %s", ns.name, err)
			return label
		}
		if ns.snapshot() == nil {
			writeErr(w, http.StatusServiceUnavailable, "no trace loaded; upload one via POST /v1/traces")
			return label
		}
	}

	q := r.URL.Query()
	for _, p := range rt.params {
		v := q.Get(p.name)
		if v == "" {
			if p.required {
				writeErr(w, http.StatusBadRequest,
					"missing required parameter: %s (e.g. %s=%s)", p.name, p.name, p.example)
				return label
			}
			continue
		}
		if p.check != nil {
			if err := p.check(v); err != nil {
				writeErr(w, http.StatusBadRequest, "%s", err)
				return label
			}
		}
	}

	rt.handler(s, ns, w, r)
	return label
}

// RouteInventory renders the route table as a markdown table — the API
// surface documentation in README.md is generated from this and pinned
// by a golden test, so the two cannot drift apart silently.
func RouteInventory() string {
	var b strings.Builder
	b.WriteString("| Method | Path | Parameters | Deprecated | Description |\n")
	b.WriteString("|--------|------|------------|------------|-------------|\n")
	for _, rt := range buildRoutes() {
		var ps []string
		for _, p := range rt.params {
			name := "`" + p.name + "`"
			if p.required {
				name += "\\*"
			}
			ps = append(ps, name)
		}
		params := "—"
		if len(ps) > 0 {
			params = strings.Join(ps, ", ")
		}
		dep := ""
		if rt.deprecated {
			dep = "yes"
		}
		fmt.Fprintf(&b, "| %s | `%s` | %s | %s | %s |\n",
			rt.method, rt.pattern, params, dep, rt.doc)
	}
	return b.String()
}
