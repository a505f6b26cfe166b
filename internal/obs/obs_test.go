package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", nil)
	r.GaugeFunc("f", "", func() float64 { return 1 })
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Inc()
	g.Dec()
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments should read zero")
	}
	if snaps := r.Gather(); snaps != nil {
		t.Errorf("nil registry gathered %v", snaps)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	g := r.Gauge("groups_live", "live groups")
	h := r.Histogram("latency_seconds", "latency", []float64{0.1, 1})
	c.Add(3)
	c.Inc()
	g.Set(10)
	g.Add(-3)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4", c.Value())
	}
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
	if h.Count() != 3 {
		t.Errorf("histogram count = %d, want 3", h.Count())
	}
	if got, want := h.Sum(), 5.55; got != want {
		t.Errorf("histogram sum = %g, want %g", got, want)
	}
	snaps := r.Gather()
	if len(snaps) != 3 {
		t.Fatalf("gathered %d snapshots, want 3", len(snaps))
	}
	hs := snaps[2]
	wantCum := []uint64{1, 2, 3}
	for i, bk := range hs.Buckets {
		if bk.Count != wantCum[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, bk.Count, wantCum[i])
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", "", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if h.Sum() != 4000 {
		t.Errorf("sum = %g, want 4000", h.Sum())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate metric name")
		}
	}()
	r.Counter("dup", "")
}

// TestPrometheusSinkGolden pins the exposition shape: HELP/TYPE once
// per family, integer formatting without decimal points, labeled
// histogram series with cumulative le buckets ending at +Inf.
func TestPrometheusSinkGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lockdocd_requests_total", "HTTP requests served")
	g := r.Gauge("lockdocd_inflight_requests", "requests currently being served")
	h1 := r.HistogramL("lockdocd_request_duration_seconds", "request latency",
		`endpoint="/v1/rules"`, []float64{0.1, 1})
	h2 := r.HistogramL("lockdocd_request_duration_seconds", "",
		`endpoint="/v1/checks"`, []float64{0.1, 1})
	c.Add(2)
	g.Set(1)
	h1.Observe(0.05)
	h1.Observe(0.5)
	h2.Observe(2)

	var b strings.Builder
	if err := (PrometheusSink{}).Write(&b, r.Gather()); err != nil {
		t.Fatal(err)
	}
	want := `# HELP lockdocd_requests_total HTTP requests served
# TYPE lockdocd_requests_total counter
lockdocd_requests_total 2
# HELP lockdocd_inflight_requests requests currently being served
# TYPE lockdocd_inflight_requests gauge
lockdocd_inflight_requests 1
# HELP lockdocd_request_duration_seconds request latency
# TYPE lockdocd_request_duration_seconds histogram
lockdocd_request_duration_seconds_bucket{endpoint="/v1/rules",le="0.1"} 1
lockdocd_request_duration_seconds_bucket{endpoint="/v1/rules",le="1"} 2
lockdocd_request_duration_seconds_bucket{endpoint="/v1/rules",le="+Inf"} 2
lockdocd_request_duration_seconds_sum{endpoint="/v1/rules"} 0.55
lockdocd_request_duration_seconds_count{endpoint="/v1/rules"} 2
lockdocd_request_duration_seconds_bucket{endpoint="/v1/checks",le="0.1"} 0
lockdocd_request_duration_seconds_bucket{endpoint="/v1/checks",le="1"} 0
lockdocd_request_duration_seconds_bucket{endpoint="/v1/checks",le="+Inf"} 1
lockdocd_request_duration_seconds_sum{endpoint="/v1/checks"} 2
lockdocd_request_duration_seconds_count{endpoint="/v1/checks"} 1
`
	if b.String() != want {
		t.Errorf("prometheus exposition diverges:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestJSONSink(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(7)
	r.Histogram("b_seconds", "", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := (JSONSink{}).Write(&b, r.Gather()); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("sink emitted invalid JSON: %v\n%s", err, b.String())
	}
	if len(out) != 2 {
		t.Fatalf("got %d metrics, want 2", len(out))
	}
	if out[0]["value"].(float64) != 7 {
		t.Errorf("counter value = %v, want 7", out[0]["value"])
	}
	if out[1]["count"].(float64) != 1 {
		t.Errorf("histogram count = %v, want 1", out[1]["count"])
	}
}

func TestNewSink(t *testing.T) {
	for _, tc := range []struct {
		format string
		want   Sink
	}{
		{"prom", PrometheusSink{}}, {"prometheus", PrometheusSink{}}, {"text", PrometheusSink{}},
		{"json", JSONSink{}}, {"none", NopSink{}}, {"", NopSink{}},
	} {
		s, err := NewSink(tc.format)
		if err != nil {
			t.Errorf("NewSink(%q): %v", tc.format, err)
		} else if s != tc.want {
			t.Errorf("NewSink(%q) = %T, want %T", tc.format, s, tc.want)
		}
	}
	if _, err := NewSink("xml"); err == nil {
		t.Error("NewSink(xml) should fail")
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 3.0
	r.GaugeFunc("dynamic", "", func() float64 { return v })
	if got := r.Gather()[0].Value; got != 3 {
		t.Errorf("gauge func = %g, want 3", got)
	}
	v = 9
	if got := r.Gather()[0].Value; got != 9 {
		t.Errorf("gauge func = %g, want 9", got)
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("debug_hits_total", "hits").Add(5)
	ds, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	resp, err := http.Get("http://" + ds.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "debug_hits_total 5") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	resp, err = http.Get("http://" + ds.Addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d, want 200", resp.StatusCode)
	}
}
