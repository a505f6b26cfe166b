package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lockdoc/internal/trace"
)

var updateRoutes = flag.Bool("update-routes", false, "rewrite the route inventory golden file")

// nsBody unwraps a success envelope's data into out.
func nsBody(t *testing.T, rec *bytes.Buffer, out any) {
	t.Helper()
	var env struct {
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal(rec.Bytes(), &env); err != nil {
		t.Fatalf("decoding envelope: %v\n%s", err, rec.String())
	}
	if err := json.Unmarshal(env.Data, out); err != nil {
		t.Fatalf("decoding payload: %v\n%s", err, env.Data)
	}
}

// TestNamespaceCRUD pins the lifecycle surface: list, create (201 then
// 200), get, delete, the undeletable default, and name validation.
func TestNamespaceCRUD(t *testing.T) {
	s := New(Config{})

	rec := do(t, s, "GET", "/v1/ns", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d %s", rec.Code, rec.Body.String())
	}
	var list []nsInfoJSON
	nsBody(t, rec.Body, &list)
	if len(list) != 1 || list[0].Name != DefaultNamespace {
		t.Fatalf("fresh server namespaces = %+v, want just default", list)
	}

	if rec := do(t, s, "PUT", "/v1/ns/tenant-a", nil); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "PUT", "/v1/ns/tenant-a", nil); rec.Code != http.StatusOK {
		t.Fatalf("idempotent create: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "PUT", "/v1/ns/no/slashes", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("slash name: %d, want 404 (no route)", rec.Code)
	}
	if rec := do(t, s, "PUT", "/v1/ns/bad*name", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad name: %d, want 400", rec.Code)
	}
	if rec := do(t, s, "GET", "/v1/ns/tenant-a", nil); rec.Code != http.StatusOK {
		t.Fatalf("get: %d", rec.Code)
	}
	if rec := do(t, s, "GET", "/v1/ns/ghost", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("get unknown: %d, want 404", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/v1/ns/default", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("delete default: %d, want 400", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/v1/ns/tenant-a", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "GET", "/v1/ns/tenant-a", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("get after delete: %d, want 404", rec.Code)
	}
}

// TestNamespaceLimit pins -max-namespaces: creations past the cap are
// refused with 429 until one is deleted.
func TestNamespaceLimit(t *testing.T) {
	s := New(Config{MaxNamespaces: 2}) // default + one tenant
	if rec := do(t, s, "PUT", "/v1/ns/a", nil); rec.Code != http.StatusCreated {
		t.Fatalf("first create: %d", rec.Code)
	}
	rec := do(t, s, "PUT", "/v1/ns/b", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("create past cap: %d, want 429", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "namespace limit reached") {
		t.Fatalf("cap message: %s", rec.Body.String())
	}
	// Uploading into a fresh namespace is also a creation — same cap.
	if rec := do(t, s, "POST", "/v1/ns/c/traces", bytes.NewReader(clockTraceBytes(t))); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("upload-create past cap: %d, want 429", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/v1/ns/a", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	if rec := do(t, s, "PUT", "/v1/ns/b", nil); rec.Code != http.StatusCreated {
		t.Fatalf("create after delete: %d", rec.Code)
	}
}

// TestLegacyAliasEquivalence pins that every legacy /v1/* route is a
// byte-identical alias of /v1/ns/default/* and advertises its
// deprecation.
func TestLegacyAliasEquivalence(t *testing.T) {
	s := newLoadedServer(t)
	paths := []string{"/v1/rules", "/v1/checks", "/v1/violations", "/v1/stats", "/v1/doc?type=clock"}
	for _, p := range paths {
		legacy := do(t, s, "GET", p, nil)
		ns := do(t, s, "GET", strings.Replace(p, "/v1/", "/v1/ns/default/", 1), nil)
		if legacy.Code != http.StatusOK || ns.Code != http.StatusOK {
			t.Fatalf("%s: legacy %d, namespaced %d", p, legacy.Code, ns.Code)
		}
		if legacy.Body.String() != ns.Body.String() {
			t.Errorf("%s: legacy and namespaced bodies differ", p)
		}
		if legacy.Header().Get("Deprecation") != "true" {
			t.Errorf("%s: legacy alias missing Deprecation header", p)
		}
		if link := legacy.Header().Get("Link"); !strings.Contains(link, "/v1/ns/default") {
			t.Errorf("%s: legacy Link = %q, want successor-version pointer", p, link)
		}
		if ns.Header().Get("Deprecation") != "" {
			t.Errorf("%s: namespaced route wrongly marked deprecated", p)
		}
	}
	// Upload through the alias, observe through the namespace.
	if rec := do(t, s, "POST", "/v1/traces?mode=append", bytes.NewReader(clockTraceBytes(t))); rec.Code != http.StatusCreated {
		t.Fatalf("legacy append: %d %s", rec.Code, rec.Body.String())
	}
	var info nsInfoJSON
	nsBody(t, do(t, s, "GET", "/v1/ns/default", nil).Body, &info)
	if info.Generation != 2 {
		t.Fatalf("default generation after alias append = %d, want 2", info.Generation)
	}
}

// TestNamespaceIsolation pins that traces, derived rules and epochs in
// one namespace are invisible to every other.
func TestNamespaceIsolation(t *testing.T) {
	s := New(Config{Ingest: trace.ReaderOptions{Lenient: true, MaxErrors: 100}})
	raw := clockTraceBytes(t)
	if rec := do(t, s, "POST", "/v1/ns/a/traces", bytes.NewReader(raw)); rec.Code != http.StatusCreated {
		t.Fatalf("upload a: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "GET", "/v1/ns/a/doc?type=clock", nil); rec.Code != http.StatusOK {
		t.Fatalf("doc a: %d", rec.Code)
	}
	// The default namespace and a fresh sibling have no snapshot.
	if rec := do(t, s, "PUT", "/v1/ns/b", nil); rec.Code != http.StatusCreated {
		t.Fatalf("create b: %d", rec.Code)
	}
	for _, p := range []string{"/v1/doc?type=clock", "/v1/ns/b/doc?type=clock"} {
		if rec := do(t, s, "GET", p, nil); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: %d, want 503 (no trace loaded)", p, rec.Code)
		}
	}
	var infos []nsInfoJSON
	nsBody(t, do(t, s, "GET", "/v1/ns", nil).Body, &infos)
	for _, info := range infos {
		switch info.Name {
		case "a":
			if info.Events == 0 || info.Generation != 1 {
				t.Errorf("namespace a = %+v, want loaded", info)
			}
		default:
			if info.Events != 0 || info.Generation != 0 {
				t.Errorf("namespace %s leaked state: %+v", info.Name, info)
			}
		}
	}
}

// TestNamespaceLifecycleEvictReopen is the acceptance path: create →
// upload → append → evict → the next read transparently re-opens from
// the store and serves a byte-identical document.
func TestNamespaceLifecycleEvictReopen(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{StoreRoot: dir})
	raw := clockTraceBytes(t)

	if rec := do(t, s, "PUT", "/v1/ns/tenant", nil); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/ns/tenant/traces", bytes.NewReader(raw)); rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "POST", "/v1/ns/tenant/traces?mode=append", bytes.NewReader(raw)); rec.Code != http.StatusCreated {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	want := do(t, s, "GET", "/v1/ns/tenant/doc?type=clock", nil)
	if want.Code != http.StatusOK {
		t.Fatalf("doc before evict: %d", want.Code)
	}

	ns := s.reg.get("tenant")
	if !s.evictNS(ns) {
		t.Fatal("evictNS refused a quiescent store-backed namespace")
	}
	if ns.snapshot() != nil {
		t.Fatal("evicted namespace still holds a snapshot")
	}
	var info nsInfoJSON
	nsBody(t, do(t, s, "GET", "/v1/ns/tenant", nil).Body, &info)
	if !info.Evicted || info.ResidentBytes != 0 {
		t.Fatalf("evicted namespace info = %+v, want evicted, 0 resident", info)
	}

	got := do(t, s, "GET", "/v1/ns/tenant/doc?type=clock", nil)
	if got.Code != http.StatusOK {
		t.Fatalf("doc after evict: %d %s", got.Code, got.Body.String())
	}
	if got.Body.String() != want.Body.String() {
		t.Errorf("re-opened document diverges from pre-eviction document:\n--- got ---\n%s--- want ---\n%s",
			got.Body.String(), want.Body.String())
	}
	metrics := do(t, s, "GET", "/metrics", nil).Body.String()
	for _, needle := range []string{
		`lockdocd_ns_evictions_total{ns="tenant"} 1`,
		`lockdocd_ns_reopens_total{ns="tenant"} 1`,
	} {
		if !strings.Contains(metrics, needle) {
			t.Errorf("metrics missing %q", needle)
		}
	}

	// An evicted namespace stays appendable: the append replays the
	// committed chain and lands as it would have without the eviction.
	if !s.evictNS(ns) {
		t.Fatal("second eviction refused")
	}
	if rec := do(t, s, "POST", "/v1/ns/tenant/traces?mode=append", bytes.NewReader(raw)); rec.Code != http.StatusCreated {
		t.Fatalf("append after evict: %d %s", rec.Code, rec.Body.String())
	}
	oracle := New(Config{})
	for _, target := range []string{"/v1/traces", "/v1/traces?mode=append", "/v1/traces?mode=append"} {
		if rec := do(t, oracle, "POST", target, bytes.NewReader(raw)); rec.Code != http.StatusCreated {
			t.Fatalf("oracle POST %s: %d", target, rec.Code)
		}
	}
	for _, ep := range []string{"doc?type=clock", "rules"} {
		if body(t, s, "/v1/ns/tenant/"+ep) != body(t, oracle, "/v1/"+ep) {
			t.Errorf("/%s after an append to the evicted namespace diverges from the never-evicted oracle", ep)
		}
	}
}

// TestEvictedNamespaceConcurrentAppendAndRead races the two ways an
// evicted namespace comes back — a read re-opening it from compacted
// state and an append replaying its trace chain — against each other.
// Every append must land exactly once whichever wins.
func TestEvictedNamespaceConcurrentAppendAndRead(t *testing.T) {
	s := New(Config{StoreRoot: t.TempDir(), Ingest: lenientIngest()})
	raw := clockTraceBytes(t)
	chunk := stripHeader(t, secondsOnlyChunk(t, discoverClockShape(t, raw), 9))
	mustPost(t, s, "/v1/ns/t/traces", raw)
	if !s.evictNS(s.reg.get("t")) {
		t.Fatal("eviction refused")
	}

	const appenders, appends = 2, 3
	var wg sync.WaitGroup
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < appends; j++ {
				if rec := do(t, s, "POST", "/v1/ns/t/traces?mode=append", bytes.NewReader(chunk)); rec.Code != http.StatusCreated {
					t.Errorf("append: %d %s", rec.Code, rec.Body.String())
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if rec := do(t, s, "GET", "/v1/ns/t/doc?type=clock", nil); rec.Code != http.StatusOK {
					t.Errorf("doc: %d %s", rec.Code, rec.Body.String())
				}
			}
		}()
	}
	wg.Wait()

	oracle := New(Config{Ingest: lenientIngest()})
	mustPost(t, oracle, "/v1/traces", raw)
	for i := 0; i < appenders*appends; i++ {
		mustPost(t, oracle, "/v1/traces?mode=append", chunk)
	}
	if got, want := body(t, s, "/v1/ns/t/rules"), body(t, oracle, "/v1/rules"); got != want {
		t.Error("concurrent appends and reopens diverged from the sequential oracle")
	}
}

// TestNamespaceBudgetEviction pins the global memory budget: loading N
// namespaces with room for roughly half keeps total residency at or
// under the budget by LRU-evicting idle namespaces, and the evicted
// ones still serve their exact documents afterwards.
func TestNamespaceBudgetEviction(t *testing.T) {
	raw := clockTraceBytes(t)
	const n = 4
	budget := int64(len(raw))*2 + 64 // room for ~2 resident traces
	s := New(Config{StoreRoot: t.TempDir(), MemBudgetBytes: budget})

	docs := make(map[string]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		if rec := do(t, s, "POST", "/v1/ns/"+name+"/traces", bytes.NewReader(raw)); rec.Code != http.StatusCreated {
			t.Fatalf("upload %s: %d %s", name, rec.Code, rec.Body.String())
		}
		rec := do(t, s, "GET", "/v1/ns/"+name+"/doc?type=clock", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("doc %s: %d", name, rec.Code)
		}
		docs[name] = rec.Body.String()
	}
	if got := s.resident.Load(); got > budget {
		t.Fatalf("resident bytes %d exceed the %d budget after %d uploads", got, budget, n)
	}
	metrics := do(t, s, "GET", "/metrics", nil).Body.String()
	evictions := 0
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "lockdocd_ns_evictions_total{") && !strings.HasSuffix(line, " 0") {
			evictions++
		}
	}
	if evictions == 0 {
		t.Fatalf("budget held %d namespaces without a single eviction:\n%s", n, metrics)
	}
	// Every namespace — evicted or resident — serves its exact document.
	for name, want := range docs {
		rec := do(t, s, "GET", "/v1/ns/"+name+"/doc?type=clock", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("doc %s after evictions: %d %s", name, rec.Code, rec.Body.String())
		}
		if rec.Body.String() != want {
			t.Errorf("namespace %s: document changed across eviction", name)
		}
	}
}

// TestBudgetEvictsToAdmit pins admission by eviction: with a budget that
// holds two traces, a third tenant's upload evicts the least recently
// used namespace instead of shedding, and the evicted tenant still
// serves its exact document.
func TestBudgetEvictsToAdmit(t *testing.T) {
	raw := clockTraceBytes(t)
	s := New(Config{StoreRoot: t.TempDir(), MemBudgetBytes: 2 * int64(len(raw))})
	mustPost(t, s, "/v1/ns/a/traces", raw)
	want := body(t, s, "/v1/ns/a/doc?type=clock")
	mustPost(t, s, "/v1/ns/b/traces", raw)

	if rec := do(t, s, "POST", "/v1/ns/c/traces", bytes.NewReader(raw)); rec.Code != http.StatusCreated {
		t.Fatalf("third upload: status %d, want 201: %s", rec.Code, rec.Body.String())
	}
	if s.reg.get("a").snapshot() != nil {
		t.Fatal("least recently used namespace a was not evicted")
	}
	if s.reg.get("b").snapshot() == nil {
		t.Fatal("namespace b was evicted although a was older")
	}
	if got := body(t, s, "/v1/ns/a/doc?type=clock"); got != want {
		t.Errorf("evicted namespace serves a different document:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestBudgetUnadmittableUploadEvictsNothing pins that an upload eviction
// cannot admit sheds with no side effects: a declared Content-Length
// above the whole budget, or above the body cap, answers 503 without
// dropping any idle tenant.
func TestBudgetUnadmittableUploadEvictsNothing(t *testing.T) {
	raw := clockTraceBytes(t)
	budget := 2*int64(len(raw)) + 64
	for _, tc := range []struct {
		name    string
		maxBody int64
		length  int64
	}{
		{"over-budget", 0, budget + 1},
		{"over-body-cap", int64(len(raw)) + 1, int64(len(raw)) + 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{StoreRoot: t.TempDir(), MemBudgetBytes: budget, MaxBodyBytes: tc.maxBody})
			mustPost(t, s, "/v1/ns/a/traces", raw)
			mustPost(t, s, "/v1/ns/b/traces", raw)

			req := httptest.NewRequest("POST", "/v1/ns/c/traces", bytes.NewReader(nil))
			req.ContentLength = tc.length
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("upload declaring %d bytes: status %d, want 503: %s", tc.length, rec.Code, rec.Body.String())
			}
			metrics := do(t, s, "GET", "/metrics", nil).Body.String()
			for _, line := range strings.Split(metrics, "\n") {
				if strings.HasPrefix(line, "lockdocd_ns_evictions_total{") && !strings.HasSuffix(line, " 0") {
					t.Errorf("shed upload evicted a tenant: %s", line)
				}
			}
			for _, name := range []string{"a", "b"} {
				if s.reg.get(name).snapshot() == nil {
					t.Errorf("namespace %s lost its live state", name)
				}
			}
		})
	}
}

// TestBudgetConcurrentUploads races uploads into distinct namespaces
// against a budget that holds two of them: each answers 201 or a memory
// shed, every admitted tenant serves the exact document, and once all
// requests finish no reservation is left in the resident counter.
func TestBudgetConcurrentUploads(t *testing.T) {
	raw := clockTraceBytes(t)
	s := New(Config{StoreRoot: t.TempDir(), MemBudgetBytes: 2 * int64(len(raw))})
	want := body(t, newLoadedServer(t), "/v1/doc?type=clock")

	const tenants = 4
	codes := make([]int, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = do(t, s, "POST", fmt.Sprintf("/v1/ns/c%d/traces", i), bytes.NewReader(raw)).Code
		}()
	}
	wg.Wait()

	var sum int64
	for i, code := range codes {
		name := fmt.Sprintf("c%d", i)
		switch code {
		case http.StatusCreated:
			if got := body(t, s, "/v1/ns/"+name+"/doc?type=clock"); got != want {
				t.Errorf("namespace %s serves a different document", name)
			}
		case http.StatusServiceUnavailable:
		default:
			t.Errorf("upload %s: status %d, want 201 or 503", name, code)
		}
	}
	for _, ns := range s.reg.all() {
		sum += ns.resident.Load()
	}
	if got := s.resident.Load(); got != sum {
		t.Errorf("resident counter %d != %d settled across namespaces: a reservation leaked", got, sum)
	}
}

// TestResidentBytesIndependentOfEviction pins that a namespace's charge
// follows what it holds, not its history: an append that first replays
// an evicted namespace's trace chain charges the same raw bytes as one
// landing on a namespace that was never evicted.
func TestResidentBytesIndependentOfEviction(t *testing.T) {
	s := New(Config{StoreRoot: t.TempDir(), Ingest: lenientIngest()})
	raw := clockTraceBytes(t)
	chunk := secondsOnlyChunk(t, discoverClockShape(t, raw), 9)
	mustPost(t, s, "/v1/ns/kept/traces", raw)
	mustPost(t, s, "/v1/ns/evicted/traces", raw)
	if !s.evictNS(s.reg.get("evicted")) {
		t.Fatal("eviction refused")
	}
	mustPost(t, s, "/v1/ns/kept/traces?mode=append", chunk)
	mustPost(t, s, "/v1/ns/evicted/traces?mode=append", chunk)

	var kept, evicted nsInfoJSON
	nsBody(t, do(t, s, "GET", "/v1/ns/kept", nil).Body, &kept)
	nsBody(t, do(t, s, "GET", "/v1/ns/evicted", nil).Body, &evicted)
	if kept.ResidentBytes == 0 || kept.ResidentBytes != evicted.ResidentBytes {
		t.Fatalf("resident_bytes: never evicted %d, evicted before the append %d; want equal and non-zero",
			kept.ResidentBytes, evicted.ResidentBytes)
	}
}

// TestConcurrentNamespaces hammers distinct namespaces with parallel
// uploads, appends and reads; run under -race this pins that tenant
// state never crosses goroutine boundaries unsynchronized.
func TestConcurrentNamespaces(t *testing.T) {
	s := New(Config{})
	raw := clockTraceBytes(t)
	ref := newLoadedServer(t)
	want := do(t, ref, "GET", "/v1/doc?type=clock", nil).Body.String()

	const tenants = 4
	var wg sync.WaitGroup
	errs := make(chan string, tenants*4)
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("w%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := do(t, s, "POST", "/v1/ns/"+name+"/traces", bytes.NewReader(raw)); rec.Code != http.StatusCreated {
				errs <- fmt.Sprintf("%s upload: %d", name, rec.Code)
				return
			}
			for j := 0; j < 3; j++ {
				if rec := do(t, s, "GET", "/v1/ns/"+name+"/rules", nil); rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("%s rules: %d", name, rec.Code)
				}
				if rec := do(t, s, "GET", "/v1/ns", nil); rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("%s list: %d", name, rec.Code)
				}
			}
			if rec := do(t, s, "GET", "/v1/ns/"+name+"/doc?type=clock", nil); rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("%s doc: %d", name, rec.Code)
			} else if rec.Body.String() != want {
				errs <- fmt.Sprintf("%s doc diverges from single-tenant reference", name)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestRouteInventoryGolden pins the generated API route inventory —
// both against a golden file and as a containment check on README.md,
// so the documented surface cannot drift from the route table.
func TestRouteInventoryGolden(t *testing.T) {
	inv := RouteInventory()
	golden := filepath.Join("testdata", "route_inventory.golden")
	if *updateRoutes {
		if err := os.WriteFile(golden, []byte(inv), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test -run TestRouteInventoryGolden -update-routes)", err)
	}
	if inv != string(want) {
		t.Errorf("RouteInventory diverges from %s:\n--- got ---\n%s--- want ---\n%s", golden, inv, want)
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), inv) {
		t.Error("README.md does not contain the current route inventory table; regenerate the Multi-tenancy section")
	}
}
