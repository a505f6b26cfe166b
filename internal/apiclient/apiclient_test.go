package apiclient

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"lockdoc/internal/resilience"
	"lockdoc/internal/server"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

func clockTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2, SyncInterval: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.RunClockExample(w, 42, 300); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T) (*server.Server, *Client) {
	t.Helper()
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, New(ts.URL)
}

// TestClientRoundTrip drives the full typed surface against a real
// server: health, upload, queries through both the legacy aliases and
// the bound-namespace routes, and namespace CRUD.
func TestClientRoundTrip(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health status = %q, want ok", h.Status)
	}

	raw := clockTrace(t)
	up, err := c.Upload(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	if up.Generation != 1 || up.Bytes != int64(len(raw)) {
		t.Fatalf("upload result = %+v, want generation 1, %d bytes", up, len(raw))
	}

	legacyDoc, err := c.Doc(ctx, "clock")
	if err != nil {
		t.Fatal(err)
	}
	nsDoc, err := c.Namespace(server.DefaultNamespace).Doc(ctx, "clock")
	if err != nil {
		t.Fatal(err)
	}
	if legacyDoc != nsDoc {
		t.Error("legacy /v1/doc and /v1/ns/default/doc disagree")
	}
	legacyRules, err := c.Rules(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	nsRules, err := c.Namespace(server.DefaultNamespace).Rules(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(legacyRules) != string(nsRules) {
		t.Error("legacy /v1/rules and /v1/ns/default/rules disagree")
	}
	if _, err := c.Checks(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Violations(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}

	// Namespace CRUD plus an isolated upload.
	info, err := c.CreateNamespace(ctx, "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "tenant-a" || info.Generation != 0 {
		t.Fatalf("created namespace = %+v", info)
	}
	ta := c.Namespace("tenant-a")
	if _, err := ta.Upload(ctx, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := ta.Append(ctx, clockTrace(t)); err != nil {
		t.Fatal(err)
	}
	info, err = c.NamespaceInfo(ctx, "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 2 || info.Events == 0 {
		t.Fatalf("namespace after upload+append = %+v", info)
	}
	list, err := c.Namespaces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Name != server.DefaultNamespace || list[1].Name != "tenant-a" {
		t.Fatalf("namespace list = %+v", list)
	}
	if err := c.DeleteNamespace(ctx, "tenant-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NamespaceInfo(ctx, "tenant-a"); err == nil {
		t.Fatal("deleted namespace still resolves")
	}
}

// TestClientAPIError pins that error envelopes decode into typed
// *APIError values with the machine-readable code.
func TestClientAPIError(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	_, err := c.NamespaceInfo(ctx, "nope")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error type = %T (%v), want *APIError", err, err)
	}
	if ae.Status != http.StatusNotFound || ae.Code != "not_found" {
		t.Fatalf("APIError = %+v, want 404/not_found", ae)
	}

	// A 503 without Retry-After must not be retried: the no-snapshot
	// response comes back immediately as a typed error.
	_, err = c.Doc(ctx, "clock")
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("doc on empty server: %v, want 503 APIError", err)
	}
}

// TestClientRetryAfter pins the retry loop: a 429 with Retry-After is
// slept out (server hint, capped at the policy Max) and retried until
// the server relents; attempts are bounded by the policy.
func TestClientRetryAfter(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls < 3 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"too_many_requests","message":"slow down"}}`)
			return
		}
		fmt.Fprint(w, `{"data":{"name":"default"}}`)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, WithBackoff(resilience.Backoff{Attempts: 4, Base: time.Millisecond, Max: 50 * time.Millisecond}))
	c.sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	info, err := c.NamespaceInfo(context.Background(), "default")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "default" {
		t.Fatalf("payload after retries = %+v", info)
	}
	if calls != 3 {
		t.Fatalf("server saw %d calls, want 3", calls)
	}
	// The 7s hint must be capped at the policy's 50ms Max, not honored
	// literally.
	if len(slept) != 2 || slept[0] != 50*time.Millisecond || slept[1] != 50*time.Millisecond {
		t.Fatalf("sleeps = %v, want two capped 50ms waits", slept)
	}
}

// TestClientRetryExhausted pins that a server that never relents makes
// the client give up after Attempts tries with the last typed error.
func TestClientRetryExhausted(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"code":"unavailable","message":"draining"}}`)
	}))
	defer ts.Close()

	c := New(ts.URL, WithBackoff(resilience.Backoff{Attempts: 3, Base: time.Millisecond, Max: time.Millisecond}))
	c.sleep = func(context.Context, time.Duration) error { return nil }
	_, err := c.Stats(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.Code != "unavailable" {
		t.Fatalf("exhausted retry error = %v, want 503 unavailable APIError", err)
	}
	if calls != 3 {
		t.Fatalf("server saw %d calls, want 3 (Attempts)", calls)
	}
}

// TestClientTruncatedBody: a response that sends fewer bytes than its
// Content-Length declares is an error, also when the declared length is
// far too large to allocate up front.
func TestClientTruncatedBody(t *testing.T) {
	for _, declared := range []int64{1 << 40, 100} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := http.ReadRequest(bufio.NewReader(conn)); err != nil {
				return
			}
			fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", declared, `{"data":1}`)
		}()
		c := New("http://"+ln.Addr().String(), WithBackoff(resilience.Backoff{Attempts: 1}))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = c.Stats(context.Background())
		runtime.ReadMemStats(&after)
		ln.Close()
		<-done
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("Content-Length %d, 10 bytes sent: err = %v, want io.ErrUnexpectedEOF", declared, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("Content-Length %d, 10 bytes sent: allocated %d bytes", declared, n)
		}
	}
}
