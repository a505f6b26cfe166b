// Package apiclient is the typed Go client for lockdocd's HTTP API.
//
// A Client is namespace-aware: the zero namespace talks to the legacy
// /v1/* aliases (the "default" namespace), and Namespace returns a
// bound copy addressing /v1/ns/{id}/*. Every call decodes the server's
// JSON envelope — successes unwrap "data", failures become *APIError
// carrying the machine-readable code — and retries shed responses:
// a 429 or 503 with a Retry-After header is slept out (honoring the
// server's hint, capped by the backoff policy) and retried, so callers
// ride through rate limits, memory-budget sheds and namespace re-opens
// without hand-rolled loops.
package apiclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"lockdoc/internal/resilience"
)

// DefaultBackoff is the retry policy when none is configured: a few
// quick tries, enough to absorb a transient shed without turning a
// dead server into a long hang.
var DefaultBackoff = resilience.Backoff{Attempts: 4, Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5}

// Client talks to one lockdocd, optionally bound to one namespace.
// Clients are cheap value-copies; the zero retry policy means
// DefaultBackoff.
type Client struct {
	base  string // e.g. "http://127.0.0.1:8347", no trailing slash
	ns    string // "" = legacy aliases (default namespace)
	hc    *http.Client
	retry resilience.Backoff

	// sleep is a test seam; nil means the backoff's context-aware sleep.
	sleep func(ctx context.Context, d time.Duration) error
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithBackoff sets the retry policy for transport errors and shed
// (429/503 + Retry-After) responses.
func WithBackoff(b resilience.Backoff) Option { return func(c *Client) { c.retry = b } }

// New returns a client for the lockdocd at base (scheme://host[:port]).
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:  strings.TrimRight(base, "/"),
		hc:    http.DefaultClient,
		retry: DefaultBackoff,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Namespace returns a copy of the client bound to one namespace: its
// query and upload calls address /v1/ns/{ns}/* instead of the legacy
// aliases. Namespace("") unbinds (back to the aliases).
func (c *Client) Namespace(ns string) *Client {
	cc := *c
	cc.ns = ns
	return &cc
}

// APIError is a non-2xx response decoded from the error envelope.
type APIError struct {
	Status     int           // HTTP status
	Code       string        // envelope code ("bad_request", "unavailable", ...)
	Message    string        // envelope message
	RetryAfter time.Duration // parsed Retry-After hint, 0 if absent
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("lockdocd: %s (%d): %s", e.Code, e.Status, e.Message)
	}
	return fmt.Sprintf("lockdocd: HTTP %d: %s", e.Status, e.Message)
}

// Health is the /healthz payload.
type Health struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
}

// UploadResult is the payload of an accepted trace upload or append.
type UploadResult struct {
	Generation   uint64 `json:"generation"`
	Bytes        int64  `json:"bytes"`
	Events       int    `json:"events"`
	Transactions uint64 `json:"transactions"`
	Groups       int    `json:"groups"`
	DirtyGroups  int    `json:"dirty_groups"`
	Premined     int    `json:"premined"`
	Corruptions  int    `json:"corruptions"`
	Degraded     string `json:"degraded"`
}

// NamespaceInfo is the namespace CRUD payload.
type NamespaceInfo struct {
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

// path prefixes p with the namespace route when the client is bound.
// p is the legacy-relative path ("/v1/rules", "/v1/traces", ...).
func (c *Client) path(p string) string {
	if c.ns == "" {
		return p
	}
	return "/v1/ns/" + c.ns + strings.TrimPrefix(p, "/v1")
}

// retryable reports whether a shed response is worth sleeping out.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// do runs one API call with the retry policy: transport errors and
// retryable sheds back off (honoring Retry-After, capped at the
// policy's Max) until attempts run out. body, when non-nil, is
// re-sent from the start on every attempt.
func (c *Client) do(ctx context.Context, method, rawPath string, q url.Values, body []byte) (*http.Response, []byte, error) {
	u := c.base + rawPath
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	attempts := c.retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			d := c.retry.Delay(try - 1)
			if ae, ok := lastErr.(*APIError); ok && ae.RetryAfter > 0 {
				// The server said when to come back; respect it, but never
				// sleep past the policy's cap (a 5s hint should not stall a
				// CLI configured for sub-second retries).
				d = ae.RetryAfter
				if c.retry.Max > 0 && d > c.retry.Max {
					d = c.retry.Max
				}
			}
			if err := c.doSleep(ctx, d); err != nil {
				return nil, nil, err
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return nil, nil, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, err
			}
			lastErr = err
			continue
		}
		data, err := readBody(resp)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= 400 {
			ae := decodeAPIError(resp, data)
			if retryable(resp.StatusCode) && ae.RetryAfter > 0 {
				lastErr = ae
				continue
			}
			return resp, data, ae
		}
		return resp, data, nil
	}
	return nil, nil, lastErr
}

// maxPrealloc caps the buffer a declared Content-Length gets before
// the body arrives. A longer body still reads, growing as it comes, so
// a header that lies about the length cannot make the client allocate
// it. The largest /v1 bodies of the simulated kernel mix are a few
// hundred kilobytes.
const maxPrealloc = 16 << 20

// readBody reads a response body into one buffer when the response
// declares its length, instead of io.ReadAll's doubling from 512
// bytes. The read still runs to the end of the body, so a truncated
// body is an error (io.ErrUnexpectedEOF) and the connection is reused.
func readBody(resp *http.Response) ([]byte, error) {
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxPrealloc {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

func decodeAPIError(resp *http.Response, body []byte) *APIError {
	ae := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		ae.Code, ae.Message = env.Error.Code, env.Error.Message
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// dataJSON runs a call and unwraps the success envelope's "data".
func (c *Client) dataJSON(ctx context.Context, method, p string, q url.Values, body []byte, out any) error {
	_, raw, err := c.do(ctx, method, p, q, body)
	if err != nil {
		return err
	}
	data, err := envelopeData(raw)
	if err != nil {
		return fmt.Errorf("apiclient: decoding envelope: %w", err)
	}
	if out == nil {
		return nil
	}
	if rm, ok := out.(*json.RawMessage); ok {
		*rm = data
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("apiclient: decoding payload: %w", err)
	}
	return nil
}

// envelopeData returns the "data" member of an envelope body, as
// json.Unmarshal into a struct with a json.RawMessage field tagged
// "data" would, but as a subslice of raw instead of a copy. The body is
// validated whole first; then one walk over its top-level object finds
// the member, matching keys the way encoding/json does: escapes
// decoded, case-insensitively, the last occurrence winning. A body
// without the member yields nil. An invalid body, or a valid one that
// is not an object, goes through json.Unmarshal, so its error (or, for
// null, its nil data) is exactly encoding/json's.
func envelopeData(raw []byte) (json.RawMessage, error) {
	i := skipSpace(raw, 0)
	if !json.Valid(raw) || raw[i] != '{' {
		var env struct {
			Data json.RawMessage `json:"data"`
		}
		err := json.Unmarshal(raw, &env)
		return env.Data, err
	}
	var data json.RawMessage
	for i = skipSpace(raw, i+1); raw[i] == '"'; {
		k := i
		i = skipString(raw, i)
		key := raw[k:i]
		i = skipSpace(raw, skipSpace(raw, i)+1) // past the colon
		v := i
		i = skipValue(raw, i)
		if dataKey(key) {
			data = raw[v:i:i]
		}
		if i = skipSpace(raw, i); raw[i] == ',' {
			i = skipSpace(raw, i+1)
		}
	}
	return data, nil
}

// The skip helpers walk JSON that json.Valid has accepted, so they need
// not check what they skip. They look only at the bytes the stop tables
// mark, which is most of their speed: a /v1 body is mostly indentation
// and string contents.
var (
	stringStops    = [256]bool{'"': true, '\\': true}
	containerStops = [256]bool{'"': true, '{': true, '[': true, '}': true, ']': true}
)

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index just past the string starting at b[i].
func skipString(b []byte, i int) int {
	for i++; ; i += 2 { // past a backslash and the byte it escapes
		for !stringStops[b[i]] {
			i++
		}
		if b[i] == '"' {
			return i + 1
		}
	}
}

// skipValue returns the index just past the value starting at b[i].
func skipValue(b []byte, i int) int {
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth := 0
		for ; ; i++ {
			for !containerStops[b[i]] {
				i++
			}
			switch b[i] {
			case '"':
				i = skipString(b, i) - 1
			case '{', '[':
				depth++
			default: // '}' or ']'
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
	}
	// A number, true, false or null: it runs to the next delimiter.
	for i < len(b) && b[i] != ',' && b[i] != '}' && b[i] != ']' && b[i] != ' ' &&
		b[i] != '\t' && b[i] != '\n' && b[i] != '\r' {
		i++
	}
	return i
}

// dataKey reports whether the quoted object key q selects the "data"
// field: encoding/json matches a key against a field name with
// bytes.EqualFold once it has unquoted it.
func dataKey(q []byte) bool {
	if bytes.IndexByte(q, '\\') < 0 {
		return bytes.EqualFold(q[1:len(q)-1], []byte("data"))
	}
	var key string
	return json.Unmarshal(q, &key) == nil && strings.EqualFold(key, "data")
}

func (c *Client) doSleep(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Health probes /healthz (never namespaced, never enveloped).
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	_, raw, err := c.do(ctx, http.MethodGet, "/healthz", nil, nil)
	if err != nil {
		return h, err
	}
	if err := json.Unmarshal(raw, &h); err != nil {
		return h, fmt.Errorf("apiclient: decoding /healthz: %w", err)
	}
	return h, nil
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	_, raw, err := c.do(ctx, http.MethodGet, "/metrics", nil, nil)
	return string(raw), err
}

// Rules fetches mined rules; q carries the derivation knobs (tac, tco,
// max_locks, naive, type, hypotheses) and may be nil.
func (c *Client) Rules(ctx context.Context, q url.Values) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.dataJSON(ctx, http.MethodGet, c.path("/v1/rules"), q, nil, &out)
	return out, err
}

// Checks fetches the documented-rule verdicts.
func (c *Client) Checks(ctx context.Context) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.dataJSON(ctx, http.MethodGet, c.path("/v1/checks"), nil, nil, &out)
	return out, err
}

// Violations fetches rule violations; q may carry max/summary plus the
// derivation knobs.
func (c *Client) Violations(ctx context.Context, q url.Values) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.dataJSON(ctx, http.MethodGet, c.path("/v1/violations"), q, nil, &out)
	return out, err
}

// Doc fetches the generated locking-documentation comment for one type
// label (text/plain, no envelope).
func (c *Client) Doc(ctx context.Context, typeLabel string) (string, error) {
	q := url.Values{"type": {typeLabel}}
	_, raw, err := c.do(ctx, http.MethodGet, c.path("/v1/doc"), q, nil)
	return string(raw), err
}

// Stats fetches the ingestion statistics payload.
func (c *Client) Stats(ctx context.Context) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.dataJSON(ctx, http.MethodGet, c.path("/v1/stats"), nil, nil, &out)
	return out, err
}

// Upload replaces the namespace's trace with raw (mode=replace).
func (c *Client) Upload(ctx context.Context, raw []byte) (UploadResult, error) {
	var out UploadResult
	err := c.dataJSON(ctx, http.MethodPost, c.path("/v1/traces"), nil, raw, &out)
	return out, err
}

// Append merges a trace continuation into the namespace (mode=append).
func (c *Client) Append(ctx context.Context, raw []byte) (UploadResult, error) {
	var out UploadResult
	err := c.dataJSON(ctx, http.MethodPost, c.path("/v1/traces"), url.Values{"mode": {"append"}}, raw, &out)
	return out, err
}

// Namespaces lists every namespace.
func (c *Client) Namespaces(ctx context.Context) ([]NamespaceInfo, error) {
	var out []NamespaceInfo
	err := c.dataJSON(ctx, http.MethodGet, "/v1/ns", nil, nil, &out)
	return out, err
}

// NamespaceInfo fetches one namespace's lifecycle state without
// re-opening it.
func (c *Client) NamespaceInfo(ctx context.Context, name string) (NamespaceInfo, error) {
	var out NamespaceInfo
	err := c.dataJSON(ctx, http.MethodGet, "/v1/ns/"+name, nil, nil, &out)
	return out, err
}

// CreateNamespace creates (or confirms) a namespace.
func (c *Client) CreateNamespace(ctx context.Context, name string) (NamespaceInfo, error) {
	var out NamespaceInfo
	err := c.dataJSON(ctx, http.MethodPut, "/v1/ns/"+name, nil, nil, &out)
	return out, err
}

// DeleteNamespace deletes a namespace and its owned store directory.
func (c *Client) DeleteNamespace(ctx context.Context, name string) error {
	return c.dataJSON(ctx, http.MethodDelete, "/v1/ns/"+name, nil, nil, nil)
}
