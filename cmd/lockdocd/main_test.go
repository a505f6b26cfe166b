package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"lockdoc/internal/apiclient"
	"lockdoc/internal/server"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

// TestMain doubles as the child entry point for the crash tests: when
// the child marker is set, the binary runs lockdocd's run() instead of
// the test suite, so the parent can SIGKILL a real daemon process.
func TestMain(m *testing.M) {
	if args := os.Getenv("LOCKDOCD_TEST_CHILD_ARGS"); args != "" {
		err := run(context.Background(), strings.Split(args, "\n"), os.Stdout, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockdocd child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func clockTrace(t testing.TB, seed int64, iterations int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.RunClockExample(w, seed, iterations); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lockdocdChild is one spawned daemon process.
type lockdocdChild struct {
	cmd  *exec.Cmd
	url  string
	done chan error
}

// startChild launches the test binary as a lockdocd daemon on an
// ephemeral port and waits for its "listening on" line.
func startChild(t *testing.T, args ...string) *lockdocdChild {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"LOCKDOCD_TEST_CHILD_ARGS="+strings.Join(args, "\n"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &lockdocdChild{cmd: cmd, done: make(chan error, 1)}
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case urlCh <- strings.TrimSpace(rest):
				default:
				}
			}
		}
	}()
	go func() { c.done <- cmd.Wait() }()
	select {
	case c.url = <-urlCh:
	case err := <-c.done:
		t.Fatalf("lockdocd child exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("lockdocd child did not start listening within 10s")
	}
	return c
}

func (c *lockdocdChild) kill(t *testing.T) {
	t.Helper()
	_ = c.cmd.Process.Kill() // SIGKILL: no chance to flush or clean up
	<-c.done
}

// httpState fetches /v1/doc and /v1/rules through the typed client;
// the rules carry support counts, so every applied chunk shows. The
// short retry policy rides out the brief 503 window while a
// freshly-restarted daemon reopens its store.
func httpState(client *http.Client, base string) (string, error) {
	c := apiclient.New(base, apiclient.WithHTTPClient(client))
	doc, err := c.Doc(context.Background(), "clock")
	if err != nil {
		return "", err
	}
	rules, err := c.Rules(context.Background(), nil)
	return doc + string(rules), err
}

// TestCrashRecoverySIGKILL is the process-level chaos soak: a real
// lockdocd child is SIGKILLed at uncontrolled points while the parent
// streams appends at it, restarted on the same -store-dir, and must
// always come back serving a valid prefix of the append sequence —
// every acknowledged chunk present, never partially-applied state. The
// appends after every restart land on a namespace reopened from its
// compacted state, so each round also replays the trace chain into a
// fresh live store before its first commit.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess soak; skipped in -short")
	}

	base := clockTrace(t, 42, 500)
	const nChunks = 24
	chunks := make([][]byte, nChunks)
	for i := range chunks {
		chunks[i] = clockTrace(t, int64(100+i), 20+5*i)
	}

	// docs[k] is the served state after the base trace plus chunks[:k] — the only
	// states a correctly-recovering daemon may ever serve. Computed on an
	// in-process oracle with the daemon's default ingest options.
	oracle := server.New(server.Config{Ingest: trace.ReaderOptions{Lenient: true, MaxErrors: 100}})
	oracleDo := func(method, target string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		oracle.Handler().ServeHTTP(rec, req)
		return rec
	}
	oracleTS := httptest.NewServer(oracle.Handler())
	defer oracleTS.Close()
	oracleDoc := func() string {
		state, err := httpState(oracleTS.Client(), oracleTS.URL)
		if err != nil {
			t.Fatalf("oracle state: %v", err)
		}
		return state
	}
	if rec := oracleDo("POST", "/v1/traces", base); rec.Code != http.StatusCreated {
		t.Fatalf("oracle base load: %d %s", rec.Code, rec.Body.String())
	}
	docs := make([]string, 0, nChunks+1)
	docs = append(docs, oracleDoc())
	for _, chunk := range chunks {
		if rec := oracleDo("POST", "/v1/traces?mode=append", chunk); rec.Code != http.StatusCreated {
			t.Fatalf("oracle append: %d %s", rec.Code, rec.Body.String())
		}
		docs = append(docs, oracleDoc())
	}

	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-store-dir", dir, "-quiet", "-lenient", "-max-errors", "100"}
	client := &http.Client{Timeout: 10 * time.Second}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))

	child := startChild(t, args...)
	if resp, err := client.Post(child.url+"/v1/traces", "application/octet-stream", bytes.NewReader(base)); err != nil {
		t.Fatalf("base upload: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("base upload: status %d", resp.StatusCode)
		}
	}

	pos := 0   // chunks the daemon has confirmed applied (acked prefix)
	kills := 0 // crash rounds completed
	for rounds := 0; pos < nChunks; rounds++ {
		if rounds > 20 {
			t.Fatalf("no progress after %d crash rounds: stuck at chunk %d/%d", rounds, pos, nChunks)
		}
		// Arm a SIGKILL at an uncontrolled moment while appends stream.
		var killWG sync.WaitGroup
		killed := make(chan struct{})
		if kills < 4 {
			killWG.Add(1)
			delay := time.Duration(rng.Intn(40)) * time.Millisecond
			go func() {
				defer killWG.Done()
				time.Sleep(delay)
				child.kill(t)
				close(killed)
			}()
		}

		sent := pos
		for sent < nChunks {
			resp, err := client.Post(child.url+"/v1/traces?mode=append",
				"application/octet-stream", bytes.NewReader(chunks[sent]))
			if err != nil {
				break // the kill landed mid-request; chunk `sent` is in limbo
			}
			code := resp.StatusCode
			resp.Body.Close()
			if code != http.StatusCreated {
				break // connection survived but the daemon died mid-handling
			}
			sent++
			pos = sent
		}
		killWG.Wait()
		if kills >= 4 && pos >= nChunks {
			break
		}
		select {
		case <-killed:
		default:
			// All chunks landed before the timer fired; kill now so the
			// final recovery is still exercised.
			child.kill(t)
		}
		kills++

		// Restart on the same directory: the daemon must recover some
		// prefix ≥ the acked one — and nothing that is not a prefix.
		child = startChild(t, args...)
		got, err := httpState(client, child.url)
		if err != nil {
			t.Fatalf("after restart %d: %v", kills, err)
		}
		recovered := -1
		for k := pos; k <= sent+1 && k <= nChunks; k++ {
			if got == docs[k] {
				recovered = k
				break
			}
		}
		if recovered < 0 {
			t.Fatalf("after restart %d: served state matches no valid prefix in [%d,%d] — partially-written state (acked %d, last sent %d)",
				kills, pos, sent+1, pos, sent)
		}
		t.Logf("restart %d: recovered prefix %d (acked %d, in-limbo up to %d)", kills, recovered, pos, sent)
		pos = recovered
	}

	// Everything applied; one final clean check against the oracle.
	got, err := httpState(client, child.url)
	if err != nil {
		t.Fatal(err)
	}
	if got != docs[nChunks] {
		t.Error("final served state differs from the oracle after full recovery soak")
	}
	child.kill(t)
}
