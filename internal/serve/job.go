package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"latch"
	"latch/internal/telemetry"
)

// WorkloadJob is the body of POST /v1/run: replay one calibrated workload
// profile through a registered backend. It is the wire form of a
// latch.RunRequest plus serving concerns (deadline, telemetry cadence).
type WorkloadJob struct {
	// Backend is the registered integration name (GET /v1/backends).
	Backend string `json:"backend"`
	// Workload is the calibrated profile name.
	Workload string `json:"workload"`
	// Events is the stream length; 0 selects the facade default.
	Events uint64 `json:"events,omitempty"`
	// Shards names the monitor count: 0 (the default) or 1, since every
	// backend runs one monitor.
	Shards int `json:"shards,omitempty"`
	// Deadline bounds the run (e.g. "2s"). Empty uses the server default;
	// the server maximum caps it either way.
	Deadline string `json:"deadline,omitempty"`
	// Telemetry, when set to a duration string like "250ms", streams a
	// telemetry snapshot line at that cadence while the run executes.
	Telemetry string `json:"telemetry,omitempty"`
	// Policy, when present, is the run's taint policy (for workload replay
	// only the sampling spec has an effect — selective tracing). Subject to
	// the server's PolicyGate; absent runs the default pipeline.
	Policy *latch.Policy `json:"policy,omitempty"`
}

// request converts the wire job to the facade's request struct — the
// server validates and runs exactly what a library caller would.
func (j *WorkloadJob) request(obs latch.Observer) latch.RunRequest {
	return latch.RunRequest{
		Backend:  j.Backend,
		Workload: j.Workload,
		Events:   j.Events,
		Shards:   j.Shards,
		Observer: obs,
		Policy:   j.Policy,
	}
}

// ProgramJob is the body of POST /v1/program: assemble and execute one LA32
// program under byte-precise DIFT with the LATCH coarse layer attached,
// reporting violations as data.
type ProgramJob struct {
	// Source is the LA32 assembly text. Required.
	Source string `json:"source"`
	// Input is the file-source byte string the program reads via sys 2.
	Input string `json:"input,omitempty"`
	// Requests are inbound network messages consumed via sys 3/4.
	Requests []string `json:"requests,omitempty"`
	// MaxSteps bounds execution; 0 selects the server default.
	MaxSteps uint64 `json:"max_steps,omitempty"`
	// Deadline bounds the run in wall-clock time, like WorkloadJob.Deadline.
	Deadline string `json:"deadline,omitempty"`
	// Policy, when present, replaces the default taint policy for this run
	// (sources, checks, propagation, selective tracing). Subject to the
	// server's PolicyGate.
	Policy *latch.Policy `json:"policy,omitempty"`
}

// programJob is the validated, internal form: the wire job and the program
// the handler assembled to validate it, which the run and the canary share.
type programJob struct {
	ProgramJob
	prog *latch.Program
}

// DefaultMaxSteps bounds a program job that does not set max_steps.
const DefaultMaxSteps = 10_000_000

func (j *programJob) input() []byte { return []byte(j.Input) }

// policy returns the job's effective taint policy: the request's when it
// sent one (and the gate admitted it), the default otherwise. The canary
// replays under the same policy, so a sampled-out source is sampled out on
// both sides.
func (j *programJob) policy() latch.Policy {
	if j.Policy != nil {
		return *j.Policy
	}
	return latch.DefaultPolicy()
}

func (j *programJob) requestBytes() [][]byte {
	if len(j.Requests) == 0 {
		return nil
	}
	out := make([][]byte, len(j.Requests))
	for i, r := range j.Requests {
		out[i] = []byte(r)
	}
	return out
}

func (j *programJob) maxSteps() uint64 {
	if j.MaxSteps == 0 {
		return DefaultMaxSteps
	}
	return j.MaxSteps
}

// parseDeadline resolves a job's deadline request against the server's
// default and ceiling. An explicit non-positive or malformed deadline is
// the caller's error.
func parseDeadline(s string, def, max time.Duration) (time.Duration, error) {
	d := def
	if s != "" {
		var err error
		d, err = time.ParseDuration(s)
		if err != nil {
			return 0, fmt.Errorf("bad deadline %q: %w", s, err)
		}
		if d <= 0 {
			return 0, fmt.Errorf("deadline must be positive, got %v", d)
		}
	}
	if max > 0 && (d <= 0 || d > max) {
		d = max
	}
	return d, nil
}

// stream writes NDJSON lines to one HTTP response. Lines are typed by
// their "type" field:
//
//	{"type":"start", ...}      accepted; echoes the job id and worker
//	{"type":"telemetry", ...}  periodic metrics snapshot (workload jobs)
//	{"type":"violation", ...}  a DIFT violation, as it is detected
//	{"type":"result", ...}     terminal: the run's outcome
//	{"type":"error", ...}      terminal: the run failed
//
// A stream is written by the worker goroutine while the handler goroutine
// waits; the mutex exists for the flusher-vs-writer edge and to keep the
// violation observer (called from the engine hot path) safe.
type stream struct {
	mu  sync.Mutex
	w   io.Writer
	fl  flusher
	err error
}

type flusher interface{ Flush() }

func newStream(w io.Writer) *stream {
	s := &stream{w: w}
	if f, ok := w.(flusher); ok {
		s.fl = f
	}
	return s
}

// send marshals one line and flushes it out, so a long run's violations
// and telemetry reach the client while the run is still in progress.
func (s *stream) send(v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		s.err = err
		return
	}
	b = append(b, '\n')
	if _, err := s.w.Write(b); err != nil {
		s.err = err
		return
	}
	if s.fl != nil {
		s.fl.Flush()
	}
}

type startLine struct {
	Type   string `json:"type"`
	Job    uint64 `json:"job"`
	Worker int    `json:"worker"`
}

type telemetryLine struct {
	Type    string                `json:"type"`
	Metrics latch.MetricsSnapshot `json:"metrics"`
}

type violationLine struct {
	Type string `json:"type"`
	Kind string `json:"kind"`
	PC   uint32 `json:"pc"`
	Addr uint32 `json:"addr"`
}

type errorLine struct {
	Type  string `json:"type"`
	Error string `json:"error"`
}

// workloadResultLine is the terminal line of a workload job: the backend's
// scheme-agnostic result, flattened into name/value columns so clients need
// no per-scheme schema.
type workloadResultLine struct {
	Type      string                `json:"type"`
	Backend   string                `json:"backend"`
	Benchmark string                `json:"benchmark"`
	Events    uint64                `json:"events"`
	Checks    uint64                `json:"checks"`
	Columns   []resultColumn        `json:"columns"`
	Metrics   latch.MetricsSnapshot `json:"metrics"`
	Elapsed   string                `json:"elapsed"`
	Canary    bool                  `json:"canary,omitempty"`
}

type resultColumn struct {
	Label string `json:"label"`
	Value string `json:"value"`
}

// programResultLine is the terminal line of a program job.
type programResultLine struct {
	Type      string                 `json:"type"`
	ExitCode  uint32                 `json:"exit_code"`
	Steps     uint64                 `json:"steps"`
	Violation *violationLine         `json:"violation,omitempty"`
	Output    string                 `json:"output"`
	Metrics   *latch.MetricsSnapshot `json:"metrics,omitempty"`
	Elapsed   string                 `json:"elapsed"`
	Canaried  bool                   `json:"canaried,omitempty"`
}

// violationObserver forwards engine violations onto the stream as they
// happen, wrapped around the metrics registry so counters still accumulate.
// It implements latch.Observer by embedding the registry and overriding the
// one method it taps.
type violationObserver struct {
	*latch.Metrics
	st *stream
}

func (o violationObserver) Violation(kind telemetry.ViolationKind, pc, addr uint32) {
	o.Metrics.Violation(kind, pc, addr)
	o.st.send(violationLine{Type: "violation", Kind: kind.String(), PC: pc, Addr: addr})
}

// asViolation is errors.As specialized to the facade's Violation type.
func asViolation(err error, v *latch.Violation) bool {
	return errors.As(err, v)
}
