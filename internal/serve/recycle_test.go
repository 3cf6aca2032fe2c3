package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"testing"
	"time"

	"latch"
	"latch/internal/engine"
	"latch/internal/serve"
	"latch/internal/trace"
	"latch/internal/workload"
)

// topPageJob reads 16 tainted input bytes into the last page of the address
// space, far beyond the geometry's AddressSpan: the module's dense coarse
// tables grow to cover it.
var topPageJob = serve.ProgramJob{
	Source: `
		li   r1, 0xFFFFF000
		movi r2, 16
		sys  2
		li   r3, 0xFFFFF000
		ldw  r4, [r3]
		movi r1, 5
		sys  1
	`,
	Input: "0123456789abcdef",
}

// cleanJob reads tainted input and exits without tripping the checker.
var cleanJob = serve.ProgramJob{
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

// freshTerminal runs job the way a library caller would — latch.New under
// the job's policy with a metrics observer, then System.Run under the job's
// deadline — and renders the terminal NDJSON line the server must send for
// it, without the wall-clock elapsed field.
func freshTerminal(t *testing.T, job serve.ProgramJob) map[string]any {
	t.Helper()
	pol := latch.DefaultPolicy()
	if job.Policy != nil {
		pol = *job.Policy
	}
	metrics := latch.NewMetrics()
	sys, err := latch.New(latch.WithPolicy(pol), latch.WithObserver(metrics))
	if err != nil {
		t.Fatal(err)
	}
	sys.Machine.Env.FileData = []byte(job.Input)
	for _, r := range job.Requests {
		sys.Machine.Env.Requests = append(sys.Machine.Env.Requests, []byte(r))
	}
	ctx := context.Background()
	if job.Deadline != "" {
		d, err := time.ParseDuration(job.Deadline)
		if err != nil {
			t.Fatal(err)
		}
		var cancel func()
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	maxSteps := job.MaxSteps
	if maxSteps == 0 {
		maxSteps = serve.DefaultMaxSteps
	}
	res, err := sys.Run(ctx, job.Source, maxSteps)
	line := map[string]any{"type": "error"}
	if err != nil {
		line["error"] = err.Error()
	} else {
		line = map[string]any{
			"type": "result", "exit_code": res.ExitCode, "steps": res.Steps,
			"output": sys.Machine.Env.Output.String(), "metrics": metrics.Snapshot(),
		}
		if v := res.Violation; v != nil {
			line["violation"] = map[string]any{"type": "violation", "kind": v.Kind.String(), "pc": v.PC, "addr": v.Addr}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServedProgramsMatchFresh pins that a worker's recycled System is
// invisible in results. One worker serves, in order, a clean job, the
// taintjump hijack, a 16-byte read into 0xFFFFF000, a tenant sampling
// policy, a deadline-cancelled loop, and the clean job again; each terminal
// line — exit, steps, output, violation and the full metrics snapshot, or
// the error — equals a fresh latch.New + Run of the same body.
func TestServedProgramsMatchFresh(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Workers: 1, QueueDepth: 2,
		Policy: serve.PolicyGate{AllowTenantPolicies: true},
	})
	taintjump, err := workload.ProgramSource("taintjump")
	if err != nil {
		t.Fatal(err)
	}
	server, err := workload.ProgramSource("server")
	if err != nil {
		t.Fatal(err)
	}
	sampled := latch.DefaultPolicy()
	sampled.Sampling = latch.Sampling{SampleFraction: 0.5, SampleSeed: 7}
	jobs := []struct {
		name string
		job  serve.ProgramJob
		want string // the terminal line's type, plus its violation kind
	}{
		{"clean", cleanJob, "result"},
		{"taintjump", serve.ProgramJob{Source: taintjump, Input: "\x08\x00\x00\x00"}, "result control-flow"},
		{"top page", topPageJob, "result"},
		{"sampled policy", serve.ProgramJob{
			Source:   server,
			Requests: []string{"GET /a HTTP/1.0", "GET /bb HTTP/1.0", "GET /ccc HTTP/1.0", "GET /d HTTP/1.0"},
			Policy:   &sampled,
		}, "result"},
		{"deadline", slowJob("20ms"), "error"},
		{"clean again", cleanJob, "result"},
	}
	for _, j := range jobs {
		status, lines := postNDJSON(t, ts.URL+"/v1/program", j.job, nil)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %v", j.name, status, lines)
		}
		served := lastLine(t, lines)
		delete(served, "elapsed")
		kind := served["type"].(string)
		if v, ok := served["violation"].(map[string]any); ok {
			kind += " " + v["kind"].(string)
		}
		if kind != j.want {
			t.Fatalf("%s: terminal line %v, want %s", j.name, served, j.want)
		}
		if want := freshTerminal(t, j.job); !reflect.DeepEqual(served, want) {
			t.Fatalf("%s: served on a recycled System:\n%v\nfresh latch.New + Run:\n%v", j.name, served, want)
		}
	}
}

// TestWarmProgramJobAllocation pins what recycling saves: once the worker
// holds a System, a program job allocates under 512 KiB in total, client and
// server included. Building a System per job (latch.New, 2.5 MiB of it the
// coarse tables) costs about 2.6 MiB.
func TestWarmProgramJobAllocation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	body, err := json.Marshal(cleanJob)
	if err != nil {
		t.Fatal(err)
	}
	// postNDJSON's 1 MiB line buffer would swamp the figure; read the
	// stream whole instead.
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/program", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(out, []byte(`"type":"result"`)) {
			t.Fatalf("status %d, err %v: %s", resp.StatusCode, err, out)
		}
	}
	post()
	post()
	const n = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("a warm program job allocated %d KiB", per>>10)
	if per >= 512<<10 {
		t.Fatalf("a warm program job allocated %d KiB, want under 512", per>>10)
	}
}

// TestServedRunsAcrossGeometries: one worker serves /v1/run jobs alternating
// across the four backends, whose module geometries differ (lazy or eager
// clear, with or without the baseline taint cache), so each job runs on a
// session the previous job left with another geometry. Every terminal line's
// columns, events and checks equal those of the same run on a session
// NewSession has just built, which no earlier run can have touched.
func TestServedRunsAcrossGeometries(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	for _, wl := range []string{"gcc", "sphinx3"} {
		for _, backend := range []string{"slatch", "hlatch", "platch", "cplatch"} {
			job := serve.WorkloadJob{Backend: backend, Workload: wl, Events: 50_000}
			status, lines := postNDJSON(t, ts.URL+"/v1/run", job, nil)
			if status != http.StatusOK {
				t.Fatalf("%s/%s: status %d: %v", backend, wl, status, lines)
			}
			served := lastLine(t, lines)
			if served["type"] != "result" {
				t.Fatalf("%s/%s: terminal line %v", backend, wl, served)
			}
			res := freshRun(t, backend, wl, 50_000)
			if served["events"] != float64(res.EventCount()) || served["checks"] != float64(res.CheckCount()) {
				t.Fatalf("%s/%s: served %v events, %v checks; fresh session %d, %d",
					backend, wl, served["events"], served["checks"], res.EventCount(), res.CheckCount())
			}
			var want []any
			for _, c := range res.Columns() {
				want = append(want, map[string]any{"label": c.Label, "value": fmt.Sprint(c.Value)})
			}
			if !reflect.DeepEqual(served["columns"], want) {
				t.Fatalf("%s/%s: columns: served %v, fresh session %v", backend, wl, served["columns"], want)
			}
		}
	}
}

// freshRun runs the named backend over events of the workload on a session
// NewSession builds for it, stepping one event at a time.
func freshRun(t *testing.T, backend, wl string, events uint64) engine.Result {
	t.Helper()
	sch, err := engine.Lookup(backend)
	if err != nil {
		t.Fatal(err)
	}
	b := sch.New()
	s, err := engine.NewSession(b.Config())
	if err != nil {
		t.Fatal(err)
	}
	p := workload.MustGet(wl)
	g, err := workload.NewGeneratorOn(p, s.Shadow)
	if err != nil {
		t.Fatal(err)
	}
	s.Module.ResetStats()
	s.Profile = p
	s.Target = events
	if err := b.Init(s); err != nil {
		t.Fatal(err)
	}
	g.Run(events, trace.SinkFunc(func(ev trace.Event) {
		s.Events++
		b.Step(s, ev)
	}))
	return b.Finish(s)
}
