package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"latch"
	"latch/internal/serve"
)

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// postNDJSON posts body and decodes every NDJSON line of the response.
func postNDJSON(t *testing.T, url string, body any, hdr map[string]string) (int, []map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var m map[string]any
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
		} else {
			m = map[string]any{"raw": sc.Text()}
		}
		lines = append(lines, m)
	}
	return resp.StatusCode, lines
}

func lastLine(t *testing.T, lines []map[string]any) map[string]any {
	t.Helper()
	if len(lines) == 0 {
		t.Fatal("empty response stream")
	}
	return lines[len(lines)-1]
}

// TestServedMatchesBatch pins the service's determinism contract: the same
// workload job produces the same terminal result — columns, event counts,
// telemetry — whether it runs through the HTTP service (on a recycled
// session) or through the library facade, and no matter how many jobs the
// worker served before it.
func TestServedMatchesBatch(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 4})

	job := serve.WorkloadJob{Backend: "slatch", Workload: "gcc", Events: 100_000}

	strip := func(m map[string]any) map[string]any {
		out := make(map[string]any, len(m))
		for k, v := range m {
			if k == "elapsed" { // wall-clock, legitimately varies
				continue
			}
			out[k] = v
		}
		return out
	}

	status, lines := postNDJSON(t, ts.URL+"/v1/run", job, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, lines)
	}
	first := strip(lastLine(t, lines))
	if first["type"] != "result" {
		t.Fatalf("terminal line: %v", first)
	}

	// Second run of the identical job lands on the session the first one
	// left on engine.RunProfile's idle list and must be byte-identical
	// (modulo wall-clock).
	status, lines = postNDJSON(t, ts.URL+"/v1/run", job, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	second := strip(lastLine(t, lines))
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("served results diverged across recycled-session runs:\n%v\n%v", first, second)
	}

	// The library facade with a fresh stack must agree on the result and
	// the full telemetry snapshot.
	metrics := latch.NewMetrics()
	res, err := latch.Run(context.Background(), latch.RunRequest{
		Backend: "slatch", Workload: "gcc", Events: 100_000, Observer: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := first["events"], float64(res.EventCount()); got != want {
		t.Fatalf("events: served %v, batch %v", got, want)
	}
	if got, want := first["checks"], float64(res.CheckCount()); got != want {
		t.Fatalf("checks: served %v, batch %v", got, want)
	}
	var wantCols []map[string]any
	for _, c := range res.Columns() {
		wantCols = append(wantCols, map[string]any{"label": c.Label, "value": fmt.Sprint(c.Value)})
	}
	wantColsJSON, _ := json.Marshal(wantCols)
	gotColsJSON, _ := json.Marshal(first["columns"])
	if string(wantColsJSON) != string(gotColsJSON) {
		t.Fatalf("columns: served %s, batch %s", gotColsJSON, wantColsJSON)
	}
	wantMetrics, _ := json.Marshal(metrics.Snapshot())
	gotMetrics, _ := json.Marshal(first["metrics"])
	var a, b map[string]any
	_ = json.Unmarshal(wantMetrics, &a)
	_ = json.Unmarshal(gotMetrics, &b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("telemetry diverged:\nserved %s\nbatch  %s", gotMetrics, wantMetrics)
	}
}

// TestProgramJobStreamsViolation runs a control-flow hijack through the
// service and expects the violation both as a live stream line and inside
// the terminal result.
func TestProgramJobStreamsViolation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 2, QueueDepth: 4})

	job := serve.ProgramJob{
		Source: `
			li   r1, 0x3000
			movi r2, 4
			sys  2
			li   r3, 0x3000
			ldw  r4, [r3]
			jr   r4
			halt
		`,
		Input: "\x00\x20\x00\x00",
	}
	status, lines := postNDJSON(t, ts.URL+"/v1/program", job, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, lines)
	}
	if lines[0]["type"] != "start" {
		t.Fatalf("first line: %v", lines[0])
	}
	var streamed bool
	for _, l := range lines {
		if l["type"] == "violation" && l["kind"] == "control-flow" {
			streamed = true
		}
	}
	if !streamed {
		t.Fatalf("violation not streamed live: %v", lines)
	}
	final := lastLine(t, lines)
	if final["type"] != "result" {
		t.Fatalf("terminal line: %v", final)
	}
	v, ok := final["violation"].(map[string]any)
	if !ok || v["kind"] != "control-flow" {
		t.Fatalf("result violation: %v", final)
	}
}

// TestTenantQuota exhausts one tenant's token bucket and checks that the
// 429 carries Retry-After while other tenants are unaffected.
func TestTenantQuota(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Workers: 1, QueueDepth: 8,
		Quota: serve.QuotaConfig{Rate: 0.0001, Burst: 1},
	})
	prog := serve.ProgramJob{Source: "movi r1, 0\n sys 1"}

	status, _ := postNDJSON(t, ts.URL+"/v1/program", prog, map[string]string{"X-Latch-Tenant": "alice"})
	if status != http.StatusOK {
		t.Fatalf("first job: status %d", status)
	}

	b, _ := json.Marshal(prog)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/program", bytes.NewReader(b))
	req.Header.Set("X-Latch-Tenant", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota job: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	status, _ = postNDJSON(t, ts.URL+"/v1/program", prog, map[string]string{"X-Latch-Tenant": "bob"})
	if status != http.StatusOK {
		t.Fatalf("independent tenant: status %d", status)
	}
}

// slowJob is a program that spins long enough to hold a worker while the
// test probes queue behavior; the deadline bounds it.
func slowJob(deadline string) serve.ProgramJob {
	return serve.ProgramJob{
		Source: `
			li   r2, 100000000
		loop:
			addi r1, r1, 1
			bne  r1, r2, loop
			movi r1, 0
			sys  1
		`,
		MaxSteps: 1_000_000_000,
		Deadline: deadline,
	}
}

// TestQueueFullBackpressure fills the single queue slot behind a busy
// worker and expects the next submission to shed with 429 + Retry-After.
func TestQueueFullBackpressure(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 1})

	var wg sync.WaitGroup
	// One job occupies the worker, one sits in the queue.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postNDJSON(t, ts.URL+"/v1/program", slowJob("3s"), nil)
		}()
	}

	// Wait until both jobs are admitted and one is parked in the queue —
	// only then is a shed guaranteed rather than racy.
	for i := 0; ; i++ {
		st := s.Stats()
		if st.Accepted >= 2 && st.Queued >= 1 {
			break
		}
		if i > 2500 {
			t.Fatalf("queue never filled: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	b, _ := json.Marshal(slowJob("3s"))
	resp, err := http.Post(ts.URL+"/v1/program", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission into full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed without Retry-After")
	}
	wg.Wait()
}

// TestGracefulShutdown verifies Close drains accepted jobs to completion
// and that new submissions are rejected while and after draining.
func TestGracefulShutdown(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	results := make(chan map[string]any, 1)
	go func() {
		_, lines := postNDJSON(t, ts.URL+"/v1/program", slowJob("1s"), nil)
		results <- lastLine(t, lines)
	}()

	// Wait for the job to be accepted.
	for i := 0; ; i++ {
		if s.Stats().Accepted >= 1 {
			break
		}
		if i > 500 {
			t.Fatal("job never accepted")
		}
		time.Sleep(2 * time.Millisecond)
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()

	// The in-flight job must complete with a terminal line even though
	// Close is concurrent.
	select {
	case final := <-results:
		typ := final["type"]
		if typ != "result" && typ != "error" {
			t.Fatalf("drained job terminal line: %v", final)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight job did not drain")
	}
	<-closed

	// After drain: health reports draining, jobs are rejected.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close: %d", resp.StatusCode)
	}
	status, _ := postNDJSON(t, ts.URL+"/v1/program", slowJob("1s"), nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("submission after Close: %d, want 503", status)
	}
}

// TestCanaryAgreesOnCleanAndViolatingRuns runs every program job through
// the reference shadow and expects zero divergences — the in-service form
// of the paper's observational-equivalence claim.
func TestCanaryAgreesOnCleanAndViolatingRuns(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 4, CanaryEveryN: 1})

	clean := serve.ProgramJob{
		Source: `
			li   r1, 0x8000
			movi r2, 8
			sys  2
			li   r3, 0x8000
			ldw  r4, [r3]
			movi r1, 3
			sys  1
		`,
		Input: "external",
	}
	hijack := serve.ProgramJob{
		Source: `
			li   r1, 0x3000
			movi r2, 4
			sys  2
			li   r3, 0x3000
			ldw  r4, [r3]
			jr   r4
			halt
		`,
		Input: "\x00\x20\x00\x00",
	}
	for _, job := range []serve.ProgramJob{clean, hijack} {
		if status, lines := postNDJSON(t, ts.URL+"/v1/program", job, nil); status != http.StatusOK {
			t.Fatalf("status %d: %v", status, lines)
		}
	}

	rep := s.Canary()
	if rep.Checked != 2 {
		t.Fatalf("canary checked %d of 2 jobs", rep.Checked)
	}
	if len(rep.Divergences) != 0 {
		t.Fatalf("canary divergences: %+v", rep.Divergences)
	}

	// The report is also served.
	resp, err := http.Get(ts.URL + "/debug/canary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served serve.CanaryReport
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if served.Checked != rep.Checked {
		t.Fatalf("served canary report: %+v", served)
	}
}

// TestRequestValidation covers the consistent 400 path: unknown backends,
// malformed geometry, bad deadlines, bad programs.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	cases := []struct {
		name string
		url  string
		body any
	}{
		{"unknown backend", "/v1/run", serve.WorkloadJob{Backend: "no-such", Workload: "gcc"}},
		{"unknown workload", "/v1/run", serve.WorkloadJob{Backend: "slatch", Workload: "no-such"}},
		{"negative shards", "/v1/run", serve.WorkloadJob{Backend: "slatch", Workload: "gcc", Shards: -1}},
		{"shards on unsharded", "/v1/run", serve.WorkloadJob{Backend: "slatch", Workload: "gcc", Shards: 2}},
		{"zero deadline", "/v1/run", serve.WorkloadJob{Backend: "slatch", Workload: "gcc", Deadline: "0s"}},
		{"negative deadline", "/v1/run", serve.WorkloadJob{Backend: "slatch", Workload: "gcc", Deadline: "-1s"}},
		{"malformed deadline", "/v1/run", serve.WorkloadJob{Backend: "slatch", Workload: "gcc", Deadline: "soon"}},
		{"bad telemetry cadence", "/v1/run", serve.WorkloadJob{Backend: "slatch", Workload: "gcc", Telemetry: "fast"}},
		{"missing source", "/v1/program", serve.ProgramJob{}},
		{"bad assembly", "/v1/program", serve.ProgramJob{Source: "not a program"}},
		{"bad program deadline", "/v1/program", serve.ProgramJob{Source: "halt", Deadline: "-5s"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, lines := postNDJSON(t, ts.URL+c.url, c.body, nil)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%v)", status, lines)
			}
		})
	}
}

// TestOversizedBodyRejected: a job body over the 1 MiB cap is answered 413
// on both job endpoints before it takes a queue slot.
func TestOversizedBodyRejected(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	huge := strings.Repeat("a", 2<<20)
	bodies := map[string]string{
		"/v1/run":     `{"backend":"slatch","workload":"` + huge + `"}`,
		"/v1/program": `{"source":"` + huge + `"}`,
	}
	for path, body := range bodies {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", path, resp.StatusCode)
		}
	}
	if st := s.Stats(); st.Accepted != 0 {
		t.Fatalf("oversized bodies were accepted as jobs: %+v", st)
	}
}

// TestDeadlineBoundsRun submits a job that cannot finish inside its
// deadline and expects a context error line, not a hang.
func TestDeadlineBoundsRun(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	start := time.Now()
	status, lines := postNDJSON(t, ts.URL+"/v1/program", slowJob("50ms"), nil)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	final := lastLine(t, lines)
	if final["type"] != "error" || !strings.Contains(final["error"].(string), "deadline") {
		t.Fatalf("terminal line: %v", final)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the run: %v", elapsed)
	}
}

// TestTelemetryStreaming asks for a tight cadence on a sizable run and
// expects at least one mid-run telemetry line before the result.
func TestTelemetryStreaming(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	job := serve.WorkloadJob{Backend: "slatch", Workload: "gcc", Events: 2_000_000, Telemetry: "1ms"}
	status, lines := postNDJSON(t, ts.URL+"/v1/run", job, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var sawTelemetry bool
	for _, l := range lines {
		if l["type"] == "telemetry" {
			sawTelemetry = true
		}
	}
	if !sawTelemetry {
		t.Skip("run finished before the first telemetry tick; nothing to assert")
	}
	if final := lastLine(t, lines); final["type"] != "result" {
		t.Fatalf("terminal line: %v", final)
	}
}

// TestBackendsEndpoint sanity-checks the discovery surface.
func TestBackendsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 1})
	resp, err := http.Get(ts.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Backends  []string `json:"backends"`
		Workloads []string `json:"workloads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Backends) == 0 || len(got.Workloads) == 0 {
		t.Fatalf("discovery payload empty: %+v", got)
	}
}
