package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"lockdoc/internal/analysis"
	"lockdoc/internal/core"
)

// maxUploadBytes caps one trace-upload request body when Config.
// MaxBodyBytes is unset (raw traces compress heavily on the wire; a
// scale-2 benchmark-mix trace is ~10 MB).
const maxUploadBytes = 512 << 20

// maxBody is the effective per-request body cap.
func (s *Server) maxBody() int64 {
	if s.cfg.MaxBodyBytes > 0 {
		return s.cfg.MaxBodyBytes
	}
	return maxUploadBytes
}

// Every /v1 JSON response uses one envelope: successes carry the
// payload under "data", failures an "error" object with a stable
// machine-readable code derived from the HTTP status. The doc route
// keeps its text/plain success body (it renders a C comment, not JSON)
// and /healthz keeps its bare shape for load-balancer probes.

// errorCode maps an HTTP status to the envelope's error code.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusTooManyRequests:
		return "too_many_requests"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

// writeErr emits the error envelope with the given status.
func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	// Two strings always encode.
	body, _ := analysis.AppendJSON(nil, map[string]any{"error": map[string]string{
		"code":    errorCode(status),
		"message": fmt.Sprintf(format, args...),
	}})
	writeBody(w, status, "application/json", body)
}

// writeData emits the success envelope with the given status.
func writeData(w http.ResponseWriter, status int, v any) {
	if body := dataBody(w, v); body != nil {
		writeBody(w, status, "application/json", body)
	}
}

// dataBody encodes the success envelope of v. A payload that does not
// encode (a NaN, say) is answered with a 500 envelope, never with a
// success status and an empty body, and dataBody returns nil.
func dataBody(w http.ResponseWriter, v any) []byte {
	body, err := analysis.AppendJSON(nil, map[string]any{"data": v})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encoding the response: %s", err)
		return nil
	}
	return body
}

// writeBody sends a whole /v1 body with its Content-Length, so the
// status goes out only once the body is built and the client can read
// the body into one buffer of its size.
func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	// A write error means the client went away; nothing to salvage.
	_, _ = w.Write(body)
}

// deriveErr maps a derivation failure (only context cancellation can
// cause one) onto the envelope. The client has usually gone away by
// then, so the status is best-effort.
func deriveErr(w http.ResponseWriter, err error) {
	writeErr(w, http.StatusServiceUnavailable, "derivation aborted: %s", err)
}

// snapshotOr503 fetches the namespace's published snapshot or answers
// 503. dispatch already re-opened evicted namespaces and 503ed empty
// ones for wantsSnapshot routes, so for those this is a belt.
func (ns *namespace) snapshotOr503(w http.ResponseWriter) *Snapshot {
	snap := ns.snapshot()
	if snap == nil {
		writeErr(w, http.StatusServiceUnavailable, "no trace loaded; upload one via POST /v1/traces")
	}
	return snap
}

// deriveOptions reads the shared derivation query parameters (tac,
// tco, max_locks, naive), which dispatch has already validated against
// deriveParams.
func deriveOptions(r *http.Request) core.Options {
	opt := core.Options{AcceptThreshold: core.DefaultAcceptThreshold}
	q := r.URL.Query()
	if v := q.Get("tac"); v != "" {
		opt.AcceptThreshold, _ = strconv.ParseFloat(v, 64)
	}
	if v := q.Get("tco"); v != "" {
		opt.CutoffThreshold, _ = strconv.ParseFloat(v, 64)
	}
	if v := q.Get("max_locks"); v != "" {
		opt.MaxLocks, _ = strconv.Atoi(v)
	}
	if v := q.Get("naive"); v != "" {
		opt.Naive, _ = strconv.ParseBool(v)
	}
	return opt
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var gen uint64
	if snap := s.Snapshot(); snap != nil {
		gen = snap.Gen
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"status": "ok", "generation": gen})
}

// nsInfoJSON is the namespace CRUD payload: lifecycle state without
// touching (or re-opening) the namespace's snapshot machinery.
type nsInfoJSON struct {
	Name          string     `json:"name"`
	Epoch         uint64     `json:"epoch"`
	Generation    uint64     `json:"generation"`
	Groups        int        `json:"groups"`
	Events        uint64     `json:"events"`
	ResidentBytes int64      `json:"resident_bytes"`
	Evicted       bool       `json:"evicted"`
	Source        string     `json:"source,omitempty"`
	LoadedAt      *time.Time `json:"loaded_at,omitempty"`
}

func nsInfo(ns *namespace) nsInfoJSON {
	info := nsInfoJSON{Name: ns.name, ResidentBytes: ns.resident.Load()}
	if snap := ns.snapshot(); snap != nil {
		info.Epoch, info.Generation = snap.Epoch, snap.Gen
		info.Groups = snap.DB.GroupCount()
		info.Events = snap.DB.RawAccesses
		info.Source = snap.Source
		t := snap.LoadedAt
		info.LoadedAt = &t
	} else {
		info.Evicted = ns.evictedState()
	}
	return info
}

func (s *Server) handleNsList(_ *namespace, w http.ResponseWriter, _ *http.Request) {
	all := s.reg.all()
	out := make([]nsInfoJSON, 0, len(all))
	for _, ns := range all {
		out = append(out, nsInfo(ns))
	}
	writeData(w, http.StatusOK, out)
}

func (s *Server) handleNsGet(ns *namespace, w http.ResponseWriter, _ *http.Request) {
	writeData(w, http.StatusOK, nsInfo(ns))
}

func (s *Server) handleNsPut(_ *namespace, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("ns")
	existed := s.reg.get(name) != nil
	ns, err := s.ensureNamespace(name)
	if err != nil {
		if err == errNsLimit {
			writeErr(w, http.StatusTooManyRequests,
				"namespace limit reached (%d); delete one first", s.cfg.MaxNamespaces)
			return
		}
		writeErr(w, http.StatusInternalServerError, "creating namespace %q: %s", name, err)
		return
	}
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	writeData(w, status, nsInfo(ns))
}

func (s *Server) handleNsDelete(ns *namespace, w http.ResponseWriter, _ *http.Request) {
	if ns.name == DefaultNamespace {
		writeErr(w, http.StatusBadRequest, "the default namespace cannot be deleted")
		return
	}
	// dispatch holds one reference on ns (ours); deleteNamespace closes
	// the owned store only when no other request still reads it.
	s.deleteNamespace(ns, 1)
	writeData(w, http.StatusOK, map[string]string{"deleted": ns.name})
}

// bodyFunc builds a JSON read route's envelope body from snap. It
// answers its own request and returns nil when it fails.
type bodyFunc func(s *Server, w http.ResponseWriter, r *http.Request, snap *Snapshot) []byte

// serveRead answers a JSON read route with the body build makes from
// the namespace's snapshot. Asked with no query parameters, the body
// depends on the snapshot alone, so the snapshot memoizes it (see
// bodyMemo); a failed build memoizes nothing. A memo hit on a route
// that derives answers without calling derive, so it counts as a
// rule-cache hit, as derive counts the hits it answers.
func (s *Server) serveRead(ns *namespace, w http.ResponseWriter, r *http.Request, route memoRoute, build bodyFunc) {
	snap := ns.snapshotOr503(w)
	if snap == nil {
		return
	}
	var body []byte
	if r.URL.RawQuery != "" {
		body = build(s, w, r, snap)
	} else {
		var hit bool
		body, hit = snap.memo[route].get(func() []byte { return build(s, w, r, snap) })
		if hit && route.derives() {
			s.m.cacheHits.Inc()
		}
	}
	if body != nil {
		writeBody(w, http.StatusOK, "application/json", body)
	}
}

func (s *Server) rulesBody(w http.ResponseWriter, r *http.Request, snap *Snapshot) []byte {
	results, err := s.derive(r.Context(), snap, deriveOptions(r))
	if err != nil {
		deriveErr(w, err)
		return nil
	}
	// type and hypotheses shape only the rendering, so they stay out of
	// the cache key.
	if label := r.URL.Query().Get("type"); label != "" {
		kept := make([]core.Result, 0, len(results))
		for _, res := range results {
			if res.Group != nil && res.Group.TypeLabel() == label {
				kept = append(kept, res)
			}
		}
		results = kept
	}
	hyps := r.URL.Query().Get("hypotheses") == "true"
	return dataBody(w, analysis.RulesJSON(snap.DB, results, hyps))
}

func (s *Server) checksBody(w http.ResponseWriter, _ *http.Request, snap *Snapshot) []byte {
	return dataBody(w, analysis.ChecksJSON(snap.Checks))
}

func (s *Server) violationsBody(w http.ResponseWriter, r *http.Request, snap *Snapshot) []byte {
	max := 20
	if v := r.URL.Query().Get("max"); v != "" {
		max, _ = strconv.Atoi(v) // validated by dispatch (maxParam)
	}
	results, err := s.derive(r.Context(), snap, deriveOptions(r))
	if err != nil {
		deriveErr(w, err)
		return nil
	}
	viols := analysis.FindViolations(snap.DB, results)
	if r.URL.Query().Get("summary") == "true" {
		type row struct {
			Type     string `json:"type"`
			Events   uint64 `json:"events"`
			Members  int    `json:"members"`
			Contexts int    `json:"contexts"`
		}
		sums := analysis.SummarizeViolations(snap.DB, viols)
		out := make([]row, 0, len(sums))
		for _, s := range sums {
			out = append(out, row{Type: s.TypeLabel, Events: s.Events, Members: s.Members, Contexts: s.Contexts})
		}
		return dataBody(w, out)
	}
	return dataBody(w, analysis.ViolationsJSON(analysis.Examples(snap.DB, viols, max)))
}

func (s *Server) handleDoc(ns *namespace, w http.ResponseWriter, r *http.Request) {
	snap := ns.snapshotOr503(w)
	if snap == nil {
		return
	}
	label := r.URL.Query().Get("type") // required: dispatch rejects a request without it
	results, err := s.derive(r.Context(), snap, deriveOptions(r))
	if err != nil {
		deriveErr(w, err)
		return
	}
	found := false
	for _, res := range results {
		if res.Group != nil && res.Group.TypeLabel() == label {
			found = true
			break
		}
	}
	if !found {
		writeErr(w, http.StatusNotFound, "no observations for type label %q", label)
		return
	}
	doc := analysis.GenerateDoc(snap.DB, results, label)
	writeBody(w, http.StatusOK, "text/plain; charset=utf-8", []byte(doc))
}

// statsJSON surfaces everything the ingestion pipeline counted or
// recovered from — the post-hoc view of an exit-code-3 style import.
type statsJSON struct {
	Generation uint64    `json:"generation"`
	Source     string    `json:"source"`
	LoadedAt   time.Time `json:"loaded_at"`

	RawAccesses      uint64 `json:"raw_accesses"`
	FilteredAccesses uint64 `json:"filtered_accesses"`
	Transactions     uint64 `json:"transactions"`
	UnresolvedAddrs  uint64 `json:"unresolved_addrs"`
	CrossCtxReleases uint64 `json:"cross_ctx_releases"`
	Groups           int    `json:"groups"`

	UnknownKindEvents uint64 `json:"unknown_kind_events"`
	DroppedAllocs     uint64 `json:"dropped_allocs"`
	DroppedFrees      uint64 `json:"dropped_frees"`
	UnknownLockOps    uint64 `json:"unknown_lock_ops"`
	OpenAtEOF         uint64 `json:"open_at_eof"`
	DroppedEvents     uint64 `json:"dropped_events"`

	BytesSkipped int64            `json:"bytes_skipped"`
	Corruptions  []corruptionJSON `json:"corruptions"`
	Degraded     string           `json:"degraded,omitempty"`
}

type corruptionJSON struct {
	Offset       int64  `json:"offset"`
	Cause        string `json:"cause"`
	BytesSkipped int64  `json:"bytes_skipped"`
}

func (s *Server) statsBody(w http.ResponseWriter, _ *http.Request, snap *Snapshot) []byte {
	d := snap.DB
	out := statsJSON{
		Generation: snap.Gen,
		Source:     snap.Source,
		LoadedAt:   snap.LoadedAt,

		RawAccesses:      d.RawAccesses,
		FilteredAccesses: d.FilteredAccesses,
		Transactions:     d.Transactions,
		UnresolvedAddrs:  d.UnresolvedAddrs,
		CrossCtxReleases: d.CrossCtxRelease,
		Groups:           d.GroupCount(),

		UnknownKindEvents: d.UnknownKindEvents,
		DroppedAllocs:     d.DroppedAllocs,
		DroppedFrees:      d.DroppedFrees,
		UnknownLockOps:    d.UnknownLockOps,
		OpenAtEOF:         d.OpenAtEOF,
		DroppedEvents:     d.DroppedEvents(),

		BytesSkipped: d.BytesSkipped,
		Corruptions:  make([]corruptionJSON, 0, len(d.Corruptions)),
		Degraded:     d.DegradedSummary(),
	}
	for _, c := range d.Corruptions {
		out.Corruptions = append(out.Corruptions, corruptionJSON{
			Offset: c.Offset, Cause: fmt.Sprint(c.Cause), BytesSkipped: c.BytesSkipped,
		})
	}
	return dataBody(w, out)
}

// uploadErr maps an ingest failure onto the envelope: body-cap
// overflow to 413, a failed durability write to 503 (the client's
// bytes are not durable; the previous snapshot is still served), and
// everything else — a genuinely bad trace — to 400.
func (s *Server) uploadErr(w http.ResponseWriter, what string, err error, counted *countingReader) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) || counted.n >= s.maxBody() {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"%s rejected: body exceeds the %d-byte limit", what, s.maxBody())
		return
	}
	if errors.Is(err, ErrStoreWrite) {
		writeErr(w, http.StatusServiceUnavailable, "%s rejected: %s", what, err)
		return
	}
	writeErr(w, http.StatusBadRequest, "%s rejected: %s", what, err)
}

func (s *Server) handleTraceUpload(ns *namespace, w http.ResponseWriter, r *http.Request) {
	// Memory-budget admission: reserve the declared body size before
	// buffering anything, evicting idle namespaces if that makes room.
	// Chunked uploads (no Content-Length) admit free and settle after
	// the read — the body cap still bounds them. The reservation is
	// transient: the ingest itself settles the namespace's resident
	// bytes (via settleResident), and endUpload releases the
	// reservation and trims back under the budget either way.
	need := max(r.ContentLength, 0)
	if !s.reserveUpload(ns, need) {
		s.shed(w, "memory", http.StatusServiceUnavailable, 5*time.Second,
			"upload of %d bytes exceeds the memory budget (%d of %d bytes resident)",
			need, s.resident.Load(), s.cfg.MemBudgetBytes)
		return
	}
	defer s.endUpload(ns, need)

	body := http.MaxBytesReader(w, r.Body, s.maxBody())
	counted := &countingReader{r: body}
	switch r.URL.Query().Get("mode") { // dispatch rejects any other mode
	case "", "replace":
		snap, err := ns.loadTrace(counted, "upload")
		if err != nil {
			// The reader state is unrecoverable mid-stream, but the previous
			// snapshot is untouched — a bad upload never degrades service.
			s.uploadErr(w, "trace", err, counted)
			return
		}
		s.m.uploadBytes.Add(uint64(counted.n))
		ns.nm.uploadBytes.Add(uint64(counted.n))
		d := snap.DB
		writeData(w, http.StatusCreated, map[string]any{
			"generation":   snap.Gen,
			"bytes":        counted.n,
			"transactions": d.Transactions,
			"groups":       d.GroupCount(),
			"corruptions":  len(d.Corruptions),
			"degraded":     d.DegradedSummary(),
		})
	case "append":
		snap, stats, err := ns.appendTrace(counted, "append")
		if errors.Is(err, ErrNoBaseSnapshot) {
			writeErr(w, http.StatusConflict, "%s", err)
			return
		}
		if err != nil {
			s.uploadErr(w, "append", err, counted)
			return
		}
		s.m.uploadBytes.Add(uint64(counted.n))
		ns.nm.uploadBytes.Add(uint64(counted.n))
		writeData(w, http.StatusCreated, map[string]any{
			"generation":   snap.Gen,
			"bytes":        counted.n,
			"events":       stats.Events,
			"groups":       snap.DB.GroupCount(),
			"dirty_groups": stats.Dirty,
			"premined":     stats.Premined,
			"delta_ms":     stats.Elapsed.Milliseconds(),
			"degraded":     snap.DB.DegradedSummary(),
		})
	}
}

type countingReader struct {
	r   interface{ Read([]byte) (int, error) }
	n   int64
	err error // the first error other than io.EOF the source returned
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	if err != nil && err != io.EOF && c.err == nil {
		c.err = err
	}
	return n, err
}
