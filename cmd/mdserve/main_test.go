package main

import (
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/mdqa"
)

// update regenerates the golden files: go test ./cmd/mdserve -update
// The same files back ci/e2e.sh, which drives the built binary with
// curl — the Go test and the script must stay request-for-request
// identical.
var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares output against testdata/<name>.golden,
// rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run: go test ./cmd/mdserve -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// exampleServer is the in-process equivalent of `mdserve -example
// -parallelism 1`.
func exampleServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := server.New(context.Background(), server.Config{Parallelism: 1}, []server.ContextSource{{
		Name:   "hospital",
		Source: mdqa.HospitalQualityExampleSource(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func request(t *testing.T, method, reqURL, body string) string {
	t.Helper()
	req, err := http.NewRequest(method, reqURL, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d\n%s", method, reqURL, resp.StatusCode, data)
	}
	return string(data)
}

// applyBatches is the delta stream the e2e flow ingests: one new Tom
// Waits measurement on a Standard-unit day (clean) and one Lou Reed
// measurement with no ward data (dirty).
const applyBatches = `{"atoms":[{"pred":"Clock","args":["Sep/6-12:30","Sep/6"]},{"pred":"Measurements","args":["Sep/6-12:30","Tom Waits","37.3"]}]}
{"atoms":[{"pred":"Clock","args":["Sep/5-13:00","Sep/5"]},{"pred":"Measurements","args":["Sep/5-13:00","Lou Reed","38.4"]}]}
`

// answersQuery asks for Tom Waits' temperatures with quality
// semantics (clean mode rewrites Measurements to Measurements_q).
const answersQuery = `tomtemp(t, v) <- Measurements(t, "Tom Waits", v).`

// sortLines sorts NDJSON lines byte-wise (the answer stream's order is
// unspecified), matching `LC_ALL=C sort` in ci/e2e.sh.
func sortLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestE2EGolden walks the exact request sequence of ci/e2e.sh against
// an in-process server and pins every response body.
func TestE2EGolden(t *testing.T) {
	ts := exampleServer(t)
	base := ts.URL + "/v1/contexts/hospital"

	checkGolden(t, "healthz", request(t, "GET", ts.URL+"/healthz", ""))
	checkGolden(t, "contexts", request(t, "GET", ts.URL+"/v1/contexts", ""))
	checkGolden(t, "assess", request(t, "POST", base+"/assess", ""))
	checkGolden(t, "session-create", request(t, "POST", base+"/sessions", ""))
	checkGolden(t, "apply", request(t, "POST", base+"/sessions/s1/apply", applyBatches))
	checkGolden(t, "answers", sortLines(request(t, "GET",
		base+"/sessions/s1/answers?q="+url.QueryEscape(answersQuery), "")))
	// The same query again: served via the plan cache (first request
	// missed, this one hits), and the stream must be byte-identical.
	checkGolden(t, "answers", sortLines(request(t, "GET",
		base+"/sessions/s1/answers?q="+url.QueryEscape(answersQuery), "")))
	// explain=1 returns the compiled join plan instead of rows — the
	// exact plan the cached answer path executes.
	checkGolden(t, "explain", request(t, "GET",
		base+"/sessions/s1/answers?q="+url.QueryEscape(answersQuery)+"&explain=1", ""))
	checkGolden(t, "session-assess", request(t, "GET", base+"/sessions/s1/assessment", ""))
	checkGolden(t, "session-close", request(t, "DELETE", base+"/sessions/s1", ""))
}

// TestContextFlag pins the repeatable -context name=path syntax.
func TestContextFlag(t *testing.T) {
	var c contextFlags
	if err := c.Set("sales=/tmp/sales.mdq"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("bad"); err == nil {
		t.Fatal("missing '=' must error")
	}
	if err := c.Set("=x.mdq"); err == nil {
		t.Fatal("empty name must error")
	}
	if got := c.String(); got != "sales=/tmp/sales.mdq" {
		t.Fatalf("String() = %q", got)
	}
}

// TestRunGraceful boots the real run() on an ephemeral port with a
// context file from disk, then cancels: a graceful shutdown returns
// nil.
func TestRunGraceful(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hospital.mdq")
	if err := os.WriteFile(path, []byte(mdqa.HospitalQualityExampleSource()), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-context", "hospital=" + path, "-drain", "1s"})
	}()
	time.Sleep(300 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not shut down")
	}
}

// TestRunErrors covers the CLI error paths.
func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), nil); err == nil {
		t.Fatal("no contexts must error")
	}
	if err := run(context.Background(), []string{"-context", "x=/nonexistent.mdq"}); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestHTTPServerTimeouts pins the listener's slow-client defences: a
// header deadline and an idle keep-alive bound, and no whole-request
// deadline that would cut streaming NDJSON bodies.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler(), context.Background())
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout < 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want ≥ 2m", hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v / WriteTimeout %v would cut streaming bodies", hs.ReadTimeout, hs.WriteTimeout)
	}
}
