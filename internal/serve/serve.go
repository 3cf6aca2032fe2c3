// Package serve turns the LATCH engine into a long-lived, multi-tenant
// taint-checking service. Where the batch CLIs build a fresh stack per
// invocation, the server keeps a bounded pool of workers (internal/pool),
// each holding recycled engine sessions for workload jobs and a recycled
// latch.System for program jobs — reset between jobs at the cost of what
// the last job touched, and dropped when a job outgrows a fixed bound. It
// admits jobs through per-tenant token buckets, bounds every run with a
// deadline, sheds load when the queue is full (429 + Retry-After), and
// streams violations, telemetry, and results back as NDJSON while the run
// is still executing.
//
// The service exposes two job kinds:
//
//	POST /v1/run      — replay a calibrated workload through a backend
//	POST /v1/program  — execute an LA32 program under DIFT with LATCH
//
// plus introspection: GET /v1/backends, /healthz, /debug/stats,
// /debug/canary (the in-service differential check), /debug/vars (expvar),
// and /debug/pprof.
//
// Determinism carries over from the batch path: the same job body produces
// the same terminal result line no matter which worker ran it, how many
// runs the worker's session already served, or whether the run was
// canaried. TestServedMatchesBatch pins this against the library facade.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"latch"
	"latch/internal/engine"
	"latch/internal/pool"
	"latch/internal/workload"
)

// Config shapes one Server.
type Config struct {
	// Workers is the worker-goroutine count; <= 0 selects one per CPU.
	Workers int
	// QueueDepth bounds the accepted-but-not-running job queue (minimum 1).
	// A full queue is the shed signal: submissions beyond it get 429.
	QueueDepth int
	// DefaultDeadline bounds jobs that do not request a deadline; zero
	// means MaxDeadline (or unbounded when that is zero too).
	DefaultDeadline time.Duration
	// MaxDeadline caps every job's deadline, requested or defaulted. Zero
	// means uncapped.
	MaxDeadline time.Duration
	// Quota is the per-tenant admission budget; zero Rate disables quotas.
	Quota QuotaConfig
	// CanaryEveryN shadow-runs every Nth program job against the reference
	// byte-precise stack (engine.Reference) and records divergences for
	// /debug/canary. Zero disables the canary.
	CanaryEveryN int
	// Geometry is the LATCH hardware configuration program jobs run under;
	// the zero value selects latch.DefaultConfig(). Geometry never affects
	// results (the equivalence claim), only the telemetry profile.
	Geometry latch.Config
	// Backends, when non-empty, restricts workload jobs to the named
	// integrations. Empty admits every registered backend.
	Backends []string
	// Policy gates per-request taint policies: which tenants may send one
	// at all, which checks the operator pins on, and how far selective
	// tracing may be turned down. The zero value rejects tenant policies
	// entirely — policy control is an operator opt-in, like Backends.
	Policy PolicyGate
}

// PolicyGate is the server-side policy allowlist: tenants may only weaken
// the taint policy within the bounds the operator configured, mirroring how
// Backends restricts which integrations a tenant can occupy.
type PolicyGate struct {
	// AllowTenantPolicies admits request bodies carrying a "policy" field.
	// Off (the default), any job naming a policy is rejected with 403.
	AllowTenantPolicies bool
	// PinnedChecks lists checks a tenant policy must keep enabled:
	// "control-flow" and/or "leak". A policy disabling a pinned check is
	// rejected with 403.
	PinnedChecks []string
	// MinSampleFraction floors selective tracing: a policy sampling below
	// this fraction is rejected with 403. Zero imposes no floor.
	MinSampleFraction float64
}

// checkPolicy applies the gate to one request policy. The returned status
// distinguishes the caller's malformed policy (400) from a well-formed one
// the operator forbids (403); 0 means admitted.
func (g PolicyGate) checkPolicy(pol *latch.Policy) (int, error) {
	if pol == nil {
		return 0, nil
	}
	if !g.AllowTenantPolicies {
		return http.StatusForbidden, fmt.Errorf("per-request policies are not enabled on this server")
	}
	if err := pol.Validate(); err != nil {
		return http.StatusBadRequest, err
	}
	for _, c := range g.PinnedChecks {
		switch c {
		case "control-flow":
			if !pol.CheckControlFlow {
				return http.StatusForbidden, fmt.Errorf("this server pins the control-flow check on; the request policy disables it")
			}
		case "leak":
			if !pol.CheckLeak {
				return http.StatusForbidden, fmt.Errorf("this server pins the leak check on; the request policy disables it")
			}
		}
	}
	if g.MinSampleFraction > 0 && pol.Sampling.Enabled() && pol.Sampling.SampleFraction < g.MinSampleFraction {
		return http.StatusForbidden, fmt.Errorf("sample fraction %v below this server's floor %v",
			pol.Sampling.SampleFraction, g.MinSampleFraction)
	}
	return 0, nil
}

// Server is the taint-checking service. Create with New, mount as an
// http.Handler, and Close to drain.
type Server struct {
	cfg    Config
	disp   *pool.Dispatcher
	quotas *quotaTable
	canary *canary
	mux    *http.ServeMux

	// workers[i] is owned by dispatcher worker i: jobs on one worker never
	// overlap, so its recycled System needs no locking.
	workers []*workerState

	jobSeq    atomic.Uint64
	accepted  atomic.Uint64
	shedQueue atomic.Uint64
	shedQuota atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	canaried  atomic.Uint64
	draining  atomic.Bool

	// Service-lifetime fast-loop aggregates, folded in from each completed
	// job's metrics so the expvar/stats surface shows how much of the
	// service's work the epoch-aware fast interpreter absorbed.
	fastEntries atomic.Uint64
	fastExits   atomic.Uint64
	fastSteps   atomic.Uint64
}

// recordFastLoop folds one job's fast-loop counters into the
// service-lifetime aggregates surfaced on /debug/stats and expvar.
func (s *Server) recordFastLoop(snap latch.MetricsSnapshot) {
	s.fastEntries.Add(snap.FastLoopEntries)
	s.fastExits.Add(snap.FastLoopExits)
	s.fastSteps.Add(snap.FastLoopSteps)
}

// workerState is the per-worker recycled state, reset (not reallocated)
// between jobs: one System for program jobs, which all run under
// Config.Geometry. Recycling is what makes a hot server cheap — the shadow
// and memory page pools, the module's dense tables, and the machine are
// reused run over run, and a reset clears only what the last job touched.
// Workload jobs need no state here: engine.RunProfile recycles their
// sessions through its own bounded idle list.
type workerState struct {
	system *latch.System // nil until the first program job, or after one outgrew keepPages
}

// New builds a Server and starts its workers.
func New(cfg Config) *Server {
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	s := &Server{
		cfg:    cfg,
		disp:   pool.NewDispatcher(cfg.Workers, cfg.QueueDepth),
		quotas: newQuotaTable(cfg.Quota, nil),
		canary: newCanary(cfg.CanaryEveryN),
		mux:    http.NewServeMux(),
	}
	s.workers = make([]*workerState, s.disp.Workers())
	for i := range s.workers {
		s.workers[i] = &workerState{}
	}
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/program", s.handleProgram)
	s.mux.HandleFunc("GET /v1/backends", s.handleBackends)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /debug/stats", s.handleStats)
	s.mux.HandleFunc("GET /debug/canary", s.handleCanary)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops admitting jobs and blocks until accepted jobs drain. In-flight
// responses complete; subsequent submissions get 503.
func (s *Server) Close() {
	s.draining.Store(true)
	s.disp.Close()
}

// Canary returns the current canary report (also served at /debug/canary).
func (s *Server) Canary() CanaryReport { return s.canary.report() }

// tenantOf extracts the tenant identity. The server trusts the header —
// authentication is a proxy concern — and buckets unidentified callers
// together.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Latch-Tenant"); t != "" {
		return t
	}
	return "anonymous"
}

// admit runs the shared admission path — drain check, tenant quota, queue
// submission — and, once a worker picks the job up, invokes run on the
// worker's goroutine with an open stream. It blocks the handler goroutine
// until the job finishes, which keeps the ResponseWriter alive for the
// worker. Returns without running on shed.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, run func(st *stream, ws *workerState, id uint64)) {
	if s.draining.Load() {
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	tenant := tenantOf(r)
	if ok, retry := s.quotas.take(tenant); !ok {
		s.shedQuota.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
		http.Error(w, fmt.Sprintf("tenant %q over quota", tenant), http.StatusTooManyRequests)
		return
	}
	id := s.jobSeq.Add(1)
	done := make(chan struct{})
	// The content type must be on the wire before the worker's first body
	// write; a shed below replaces it via http.Error.
	w.Header().Set("Content-Type", "application/x-ndjson")
	ok, err := s.disp.TrySubmit(func(worker int) {
		defer close(done)
		st := newStream(w)
		st.send(startLine{Type: "start", Job: id, Worker: worker})
		run(st, s.workers[worker], id)
	})
	if err != nil {
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	if !ok {
		s.shedQueue.Add(1)
		// The queue drains at job granularity; one second is the honest
		// "try again shortly" for sub-second jobs.
		w.Header().Set("Retry-After", "1")
		http.Error(w, "job queue full", http.StatusTooManyRequests)
		return
	}
	s.accepted.Add(1)
	<-done
}

// maxJobBytes bounds a job request body. The largest built-in program is
// 1,370 bytes of source, so 1 MiB leaves ample room for real jobs while an
// untrusted body cannot exhaust memory.
const maxJobBytes = 1 << 20

// decodeJob decodes r's JSON body into job, reading at most maxJobBytes. On
// failure it answers 413 for an oversized body or 400 for a malformed one
// and reports false; either way the job never reaches the queue.
func decodeJob(w http.ResponseWriter, r *http.Request, job any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBytes)).Decode(job)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		http.Error(w, fmt.Sprintf("job body exceeds %d bytes", maxJobBytes), http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, "bad job body: "+err.Error(), http.StatusBadRequest)
	}
	return false
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var job WorkloadJob
	if !decodeJob(w, r, &job) {
		return
	}
	// Validate before occupying a queue slot: the facade's request
	// validation plus serving-only fields.
	if err := job.request(nil).Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(s.cfg.Backends) > 0 && !contains(s.cfg.Backends, job.Backend) {
		http.Error(w, fmt.Sprintf("backend %q not enabled on this server (enabled: %v)",
			job.Backend, s.cfg.Backends), http.StatusForbidden)
		return
	}
	if status, err := s.cfg.Policy.checkPolicy(job.Policy); status != 0 {
		http.Error(w, err.Error(), status)
		return
	}
	deadline, err := parseDeadline(job.Deadline, s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var cadence time.Duration
	if job.Telemetry != "" {
		cadence, err = time.ParseDuration(job.Telemetry)
		if err != nil || cadence <= 0 {
			http.Error(w, fmt.Sprintf("bad telemetry cadence %q", job.Telemetry), http.StatusBadRequest)
			return
		}
	}
	reqCtx := r.Context()
	s.admit(w, r, func(st *stream, _ *workerState, _ uint64) {
		ctx := reqCtx
		if deadline > 0 {
			var cancel func()
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		s.runWorkload(ctx, st, &job, cadence)
	})
}

// runWorkload executes one workload-replay job through engine.RunProfile,
// streaming telemetry at the requested cadence.
func (s *Server) runWorkload(ctx context.Context, st *stream, job *WorkloadJob, cadence time.Duration) {
	start := time.Now()
	p, err := workload.Get(job.Workload)
	if err != nil {
		s.fail(st, err)
		return
	}
	sch, err := engine.Lookup(job.Backend)
	if err != nil {
		s.fail(st, err)
		return
	}
	events := job.Events
	if events == 0 {
		events = latch.DefaultRunEvents
	}

	metrics := latch.NewMetrics()
	stopTicker := make(chan struct{})
	if cadence > 0 {
		// Metrics is an atomic registry, so snapshotting concurrently with
		// the run is race-free and never perturbs it.
		go func() {
			t := time.NewTicker(cadence)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					st.send(telemetryLine{Type: "telemetry", Metrics: metrics.Snapshot()})
				case <-stopTicker:
					return
				}
			}
		}()
	}

	runOpts := engine.RunOptions{
		Events:   events,
		Observer: metrics,
	}
	if job.Policy != nil {
		runOpts.Policy = *job.Policy
	}
	res, err := engine.RunProfile(ctx, sch.New(), p, runOpts)
	close(stopTicker)
	if err != nil {
		s.fail(st, err)
		return
	}

	finalSnap := metrics.Snapshot()
	s.recordFastLoop(finalSnap)
	line := workloadResultLine{
		Type:      "result",
		Backend:   job.Backend,
		Benchmark: res.BenchmarkName(),
		Events:    res.EventCount(),
		Checks:    res.CheckCount(),
		Metrics:   finalSnap,
		Elapsed:   time.Since(start).Round(time.Microsecond).String(),
	}
	for _, c := range res.Columns() {
		line.Columns = append(line.Columns, resultColumn{Label: c.Label, Value: fmt.Sprint(c.Value)})
	}
	st.send(line)
	s.completed.Add(1)
}

func (s *Server) handleProgram(w http.ResponseWriter, r *http.Request) {
	var wire ProgramJob
	if !decodeJob(w, r, &wire) {
		return
	}
	if wire.Source == "" {
		http.Error(w, "source is required", http.StatusBadRequest)
		return
	}
	// Assemble up front: a syntactically bad program is the caller's 400,
	// not a queue slot. The job and the canary run this same program.
	prog, err := latch.Assemble(wire.Source)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if status, err := s.cfg.Policy.checkPolicy(wire.Policy); status != 0 {
		http.Error(w, err.Error(), status)
		return
	}
	deadline, err := parseDeadline(wire.Deadline, s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	job := &programJob{ProgramJob: wire, prog: prog}
	reqCtx := r.Context()
	s.admit(w, r, func(st *stream, ws *workerState, id uint64) {
		ctx := reqCtx
		if deadline > 0 {
			var cancel func()
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		s.runProgram(ctx, st, ws, job, id)
	})
}

// keepPages bounds what a worker's recycled System keeps between program
// jobs. A job that backs more than keepPages guest pages or keepPages tag
// pages, or taints memory beyond the geometry's AddressSpan (growing the
// module's dense coarse tables, about 16 MiB for one byte near 4 GiB), leaves
// its System to the collector, and the next job builds a fresh one. What a
// worker keeps is then at most a freshly built System plus keepPages pages
// of each kind and the page-table leaves mapping them — under 2 MiB more,
// whatever jobs it ran — and the last job's input, which maxJobBytes
// bounds. The built-in programs use a handful of pages.
const keepPages = 64

// reusable reports whether sys stayed within keepPages and the table sizes
// latch.New gave it.
func reusable(sys *latch.System) bool {
	return sys.Machine.Mem.PagesAllocated() <= keepPages &&
		sys.Shadow.PagesAllocated() <= keepPages &&
		!sys.Module.TablesGrown()
}

// runProgram executes one LA32 program job on the worker's recycled System
// (the facade's single-machine DIFT stack): reset in place for the job's
// policy and observer, or built afresh when the worker holds none. Results
// are identical either way. Violations stream as they fire.
func (s *Server) runProgram(ctx context.Context, st *stream, ws *workerState, job *programJob, id uint64) {
	start := time.Now()
	metrics := latch.NewMetrics()
	obs := violationObserver{Metrics: metrics, st: st}
	sys := ws.system
	if sys != nil {
		sys.Reset(job.policy(), obs)
	} else {
		geom := s.cfg.Geometry
		if geom == (latch.Config{}) {
			geom = latch.DefaultConfig()
		}
		var err error
		if sys, err = latch.New(latch.WithObserver(obs), latch.WithConfig(geom), latch.WithPolicy(job.policy())); err != nil {
			s.fail(st, err)
			return
		}
	}
	sys.Machine.Env.FileData = job.input()
	sys.Machine.Env.Requests = job.requestBytes()

	res, runErr := sys.RunProgram(ctx, job.prog, job.maxSteps())
	output := sys.Machine.Env.Output.String()
	sys.Machine.Env.Output = bytes.Buffer{} // a kept System must not pin the job's output
	ws.system = nil
	if reusable(sys) {
		ws.system = sys
	}

	if s.canary.admit() {
		s.canaried.Add(1)
		// The shadow run executes on the worker, inline: the canary's cost
		// is visible as serving capacity, never as added client latency
		// beyond this response.
		s.canary.check(ctx, id, job, res, runErr, []byte(output))
	}

	if runErr != nil {
		s.fail(st, runErr)
		return
	}
	snap := metrics.Snapshot()
	s.recordFastLoop(snap)
	line := programResultLine{
		Type:     "result",
		ExitCode: res.ExitCode,
		Steps:    res.Steps,
		Output:   output,
		Metrics:  &snap,
		Elapsed:  time.Since(start).Round(time.Microsecond).String(),
	}
	if v := res.Violation; v != nil {
		line.Violation = &violationLine{
			Type: "violation", Kind: v.Kind.String(), PC: v.PC, Addr: v.Addr,
		}
	}
	st.send(line)
	s.completed.Add(1)
}

func (s *Server) fail(st *stream, err error) {
	s.failed.Add(1)
	st.send(errorLine{Type: "error", Error: err.Error()})
}

func (s *Server) handleBackends(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"backends":  latch.Backends(),
		"workloads": latch.Workloads(),
		"programs":  workload.ProgramNames(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSON(w, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

// Stats is the /debug/stats payload: serving counters and live queue
// occupancy.
type Stats struct {
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	Queued     int    `json:"queued"`
	Accepted   uint64 `json:"accepted"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	ShedQueue  uint64 `json:"shed_queue_full"`
	ShedQuota  uint64 `json:"shed_quota"`
	Canaried   uint64 `json:"canaried"`

	// Fast-loop aggregates across every completed job.
	FastLoopEntries uint64 `json:"fast_loop_entries"`
	FastLoopExits   uint64 `json:"fast_loop_exits"`
	FastLoopSteps   uint64 `json:"fast_loop_steps"`
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats {
	return Stats{
		Workers:    s.disp.Workers(),
		QueueDepth: s.disp.QueueDepth(),
		Queued:     s.disp.Queued(),
		Accepted:   s.accepted.Load(),
		Completed:  s.completed.Load(),
		Failed:     s.failed.Load(),
		ShedQueue:  s.shedQueue.Load(),
		ShedQuota:  s.shedQuota.Load(),
		Canaried:   s.canaried.Load(),

		FastLoopEntries: s.fastEntries.Load(),
		FastLoopExits:   s.fastExits.Load(),
		FastLoopSteps:   s.fastSteps.Load(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) { writeJSON(w, s.Stats()) }

func (s *Server) handleCanary(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.canary.report())
}

func contains(set []string, s string) bool {
	for _, x := range set {
		if x == s {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
