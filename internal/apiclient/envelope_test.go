package apiclient

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"lockdoc/internal/server"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

// rulesBody loads raw into an in-process lockdocd and returns its
// /v1/rules response body, envelope included.
func rulesBody(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	s := server.New(server.Config{})
	if _, err := s.LoadTrace(bytes.NewReader(raw), "rules"); err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/rules", nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET /v1/rules: status %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// FuzzEnvelopeData holds envelopeData to its oracle, json.Unmarshal
// into a struct with a json.RawMessage field tagged "data": for every
// body both must return the same bytes (nil when the member is absent)
// and the same error, or both no error.
func FuzzEnvelopeData(f *testing.F) {
	var buf bytes.Buffer
	w, err := trace.NewWriterOptions(&buf, trace.WriterOptions{Version: trace.FormatV2, SyncInterval: 64})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := workload.RunClockExample(w, 42, 300); err != nil {
		f.Fatal(err)
	}
	f.Add(rulesBody(f, buf.Bytes()))
	for _, s := range []string{
		`{"data":1,"data":2}`, `{"data":{"a":1},"DATA":[2],"x":3}`, `{"Data":"first","data":"second"}`,
		`{"DATA":true}`, `{"daTa":null,"other":{"data":4}}`,
		`{"\u0064ata":"escaped","x":0}`, `{"data":1,"\u0044AT\u0041":2}`, `{"d\u0061ta":{"data":3},"data\u0000":4}`,
		`{"data":[1,"two"]}`, `{"data":{},"datA":5}`, `{"dat":1,"datas":2}`, "{\"\u212aey\":1,\"data\":2}",
		`{"x":{"data":"nested"},"y":[{"data":0}]}`, `{"error":{"code":"internal","message":"m"}}`,
		`{"data": null}`, `{"data":""}`, `{}`, ` { "data" : [ 1 , { "k" : "v\"}" } ] } `,
		`{"data":-1.5e3}`, `{"data":"\\\"é😀"}`, `{"a":"\\","data":false}`,
		`null`, `[{"data":1}]`, `"data"`, `12`, `true`, ``, ` `,
		`{"data":1`, `{"data":}`, `{"data" 1}`, `{data:1}`, `{"data":1}}`, `{"data":1} x`, "{\"data\":\"\xff\"}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var env struct {
			Data json.RawMessage `json:"data"`
		}
		wantErr := json.Unmarshal(body, &env)
		got, err := envelopeData(body)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("envelopeData(%q): error %v, want %v", body, err, wantErr)
		}
		if !bytes.Equal(got, env.Data) || (got == nil) != (env.Data == nil) {
			t.Fatalf("envelopeData(%q) = %q, want %q", body, got, env.Data)
		}
	})
}

var (
	kernelRulesOnce sync.Once
	kernelRules     []byte
)

// cannedTransport answers every request with body.
type cannedTransport []byte

func (c cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(c)),
		ContentLength: int64(len(c)),
		Request:       req,
	}, nil
}

// BenchmarkEnvelopeData times one Rules call that unwraps the /v1/rules
// body of the serve-read workload's input (the scale-1 kernel mix,
// PreemptEvery 97, seed 1; about 101 KB). A transport answers every
// request with those bytes, so the time is the client's alone: building
// the request, reading the body and unwrapping the envelope.
func BenchmarkEnvelopeData(b *testing.B) {
	kernelRulesOnce.Do(func() {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workload.Run(w, workload.Options{Seed: 1, Scale: 1, PreemptEvery: 97}); err != nil {
			b.Fatal(err)
		}
		kernelRules = rulesBody(b, buf.Bytes())
	})
	c := New("http://lockdocd", WithHTTPClient(&http.Client{Transport: cannedTransport(kernelRules)}))
	b.SetBytes(int64(len(kernelRules)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Rules(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}
