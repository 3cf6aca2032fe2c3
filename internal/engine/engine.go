// Package engine is the shared substrate under the LATCH integrations
// (§5): the per-run Session owning the latch module, shadow taint state,
// trace cursor, and telemetry wiring; the hardware/software epoch and trap
// state machine with its unified Figure 14 cycle accounting; and a
// name-keyed registry of Backend implementations.
//
// The paper evaluates one LATCH module under three integrations — S-LATCH
// (§5.1), P-LATCH (§5.2), H-LATCH (§5.3). Each differs only in policy:
// what to do with a stream event, when a coarse positive traps, and which
// numbers the run reports. Everything else — module construction, the
// generator-driven stream, mode switching, cost charging — is shared and
// lives here. Adding a fourth integration is one package: implement
// Backend, call Register from init, and the experiment harness, the public
// facade, and the CLI `-backend` flag pick it up by name.
//
// RunProfile is the one profile driver: the generator fills batches of
// EventBatchSize events, and a canceled run stops fewer than
// CancelCheckEvents events after its cancellation.
//
// Runs do not build their Session: like the paper's LATCH module, which is
// cleared between runs rather than rebuilt (§5.1), a session is recycled.
// RunProfile takes one from a process-wide idle list, Session.Recycle
// reconfigures it in place for the backend's geometry, and the run puts it
// back. The list holds at most GOMAXPROCS sessions, and a session returns to
// it only while its shadow maps at most 8,192 tag pages and its coarse
// tables kept the size Config.AddressSpan gives them, so the idle sessions
// a process keeps stay bounded (about 56 MiB each) whatever it ran.
package engine

import (
	"context"
	"fmt"

	"latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/workload"
)

// Mode is the current execution layer of a two-mode integration.
type Mode int

// Modes.
const (
	ModeHardware Mode = iota
	ModeSoftware
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeHardware {
		return "hardware"
	}
	return "software"
}

// Backend is one integration of the LATCH module. It owns the
// scheme-specific policy — the per-event step, when to trap, and how to
// report the run — while the engine owns the Session's shared machinery.
// A Backend instance serves exactly one run; factories registered with
// Register produce a fresh one per run.
type Backend interface {
	// Name is the registry key ("slatch", "platch", "hlatch", ...).
	Name() string
	// Config is the hardware geometry the run's module is built with.
	Config() latch.Config
	// Init prepares per-run state once the Session (module, shadow state,
	// profile, observer) exists and before the first event. Returning an
	// error aborts the run.
	Init(s *Session) error
	// Step consumes one stream event. The Session's Events cursor has
	// already advanced to include ev.
	Step(s *Session, ev trace.Event)
	// Finish produces the run's result after the last event.
	Finish(s *Session) Result
}

// BatchBackend is the optional Backend extension for integrations that
// consume the stream in batches — the software analog of the paper's
// commit-stream FIFO, where the monitor drains whole log chunks per
// activation instead of taking one call per committed instruction.
// StepBatch(s, evs) must be observably equivalent to, for each event in
// order, advancing s.Events by one and then calling Step: under the batched
// driver the backend owns the cursor, so implementations whose per-event
// logic reads s.Events (pending-window filters, epoch transitions) must
// advance it before processing each event.
type BatchBackend interface {
	Backend
	StepBatch(s *Session, evs []trace.Event)
}

// Sharded is the optional Backend extension through which a caller names
// the monitor count. Every backend runs one monitor; the concurrent P-LATCH
// backend implements Sharded and accepts only 1, for callers that still
// forward a count (perfbench's traced replay backend does).
type Sharded interface {
	Backend
	// SetShards names the monitor count for this run; only 1 is valid.
	SetShards(n int) error
}

// Column is one headline metric of a backend result, for scheme-agnostic
// tabulation.
type Column struct {
	Label string
	Value any
}

// Result is the outcome of one backend run. Concrete backends return
// richer structs; this surface is what the registry-driven harness and the
// CLI render without knowing the scheme.
type Result interface {
	// BenchmarkName names the workload the run consumed.
	BenchmarkName() string
	// EventCount is the number of stream events consumed.
	EventCount() uint64
	// CheckCount is the number of coarse memory checks performed (zero
	// when the scheme does not report them).
	CheckCount() uint64
	// Columns lists the scheme's headline metrics in stable order.
	Columns() []Column
}

// CancelCheckEvents is the profile driver's cancellation granularity: the
// run's context is polled whenever Session.Events reaches a multiple of this
// (a power of two, so the check is a mask test). A run canceled while its
// backend consumes event N stops — with its backend fully finalized, its
// monitor joined — with Session.Events - N < CancelCheckEvents.
const CancelCheckEvents = 4096

// EventBatchSize is the profile driver's delivery batch: the generator
// writes events into a buffer of this many and closes a batch at every
// multiple of it in the stream, and earlier before each shadow mutation.
// Mutations add boundaries but never move the grid, and EventBatchSize
// divides CancelCheckEvents, so every cancellation poll lands on a batch end.
const EventBatchSize = 512

// RunOptions parameterizes one profile-driven run.
type RunOptions struct {
	// Events is the requested stream length.
	Events uint64
	// Observer, when non-nil, receives the run's telemetry: the module's
	// check-path events plus whatever the backend emits (epoch
	// transitions, queue stalls). Observers never affect results.
	Observer telemetry.Observer
	// Policy is the run's taint policy. For profile-driven runs only the
	// Sampling spec has an effect (it selects which of the profile's
	// taint runs are materialized and observed tainted); the zero value
	// — sampling disabled — reproduces the unsampled pipeline exactly.
	// The policy is validated on every run and travels with the Session
	// for the run's duration.
	Policy policy.Policy
}

// RunProfile streams one calibrated workload profile through a backend:
// take an idle Session recycled for the backend's geometry (or build one),
// let the backend initialize, feed it the generator's event stream, collect
// its result, and put the session back on the idle list. This is the single
// driver loop the per-scheme packages used to duplicate.
//
// Cancellation: ctx is polled whenever the stream reaches a multiple of
// CancelCheckEvents events, so the stream stops fewer than
// CancelCheckEvents events after the cancellation. On cancellation the
// backend is still finalized (so the concurrent backend joins its monitor
// goroutine and leaks nothing), the partial result is discarded, and
// ctx.Err() is returned.
func RunProfile(ctx context.Context, b Backend, p workload.Profile, opts RunOptions) (Result, error) {
	res, s, err := RunProfileSession(ctx, b, p, opts)
	if s != nil {
		releaseSession(s)
	}
	return res, err
}

// RunProfileSession is RunProfile handing the run's Session to the caller
// instead of putting it back, so callers can capture a Snapshot of the
// shared state — the differential checker compares Snapshots across replays
// of the same seed. The session is returned on cancellation too, and is nil
// only when none was taken.
func RunProfileSession(ctx context.Context, b Backend, p workload.Profile, opts RunOptions) (Result, *Session, error) {
	if err := opts.Policy.Validate(); err != nil {
		return nil, nil, fmt.Errorf("engine: %w", err)
	}
	s, err := takeSession(b.Config())
	if err != nil {
		return nil, nil, err
	}
	res, err := s.run(ctx, b, p, opts)
	return res, s, err
}

// run drives one profile through b on s, which NewSession or Recycle has just
// prepared for b's geometry.
func (s *Session) run(ctx context.Context, b Backend, p workload.Profile, opts RunOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.Policy = opts.Policy
	g, err := workload.NewSampledGeneratorOn(p, s.Shadow, opts.Policy.Sampling)
	if err != nil {
		return nil, err
	}
	// Layout materialization populated the coarse state through the shadow
	// watchers; measure only the steady-state reference stream. The
	// observer attaches after the reset for the same reason: it sees
	// exactly the measured stream.
	s.Module.ResetStats()
	s.lastMisses = 0
	s.AttachObserver(opts.Observer)
	s.Profile = p
	s.Target = opts.Events
	// A context canceled before the stream starts aborts here, before the
	// backend spins up any per-run machinery (monitor goroutines included).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := b.Init(s); err != nil {
		return nil, err
	}
	// One driver for every backend. Batches close on the EventBatchSize grid
	// and before every shadow mutation, so each event is checked against the
	// state it was generated under, and every multiple of CancelCheckEvents
	// is a batch end, where ctx is polled.
	done := ctx.Done()
	bb, batched := b.(BatchBackend)
	g.RunBatches(opts.Events, make([]trace.Event, EventBatchSize), func(evs []trace.Event) {
		if batched {
			bb.StepBatch(s, evs)
		} else {
			for i := range evs {
				s.Events++
				b.Step(s, evs[i])
			}
		}
		if s.Events&(CancelCheckEvents-1) == 0 && done != nil {
			select {
			case <-done:
				g.Stop()
			default:
			}
		}
	})
	// Finalize unconditionally: the concurrent backend's Finish closes its
	// ring and joins its monitor goroutine, which must happen on the
	// cancellation path too.
	res := b.Finish(s)
	if g.Stopped() {
		return nil, ctx.Err()
	}
	return res, nil
}

// RunScheme runs the named registered backend, in its paper-default
// configuration, over one workload profile.
func RunScheme(ctx context.Context, name string, p workload.Profile, opts RunOptions) (Result, error) {
	sch, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return RunProfile(ctx, sch.New(), p, opts)
}

// NewSession builds the per-run state every backend shares: the
// byte-precise shadow taint state and the latch module attached to it.
// Profile-driven runs go through RunProfile, which also owns the stream
// cursor and recycles sessions instead of building them; program-driven
// runs (the co-simulations) drive Step themselves.
func NewSession(cfg latch.Config) (*Session, error) {
	sh, err := shadow.New(cfg.DomainSize)
	if err != nil {
		return nil, err
	}
	m, err := latch.New(cfg, sh)
	if err != nil {
		return nil, err
	}
	return &Session{
		Module:      m,
		Shadow:      sh,
		missPenalty: cfg.CTCMissPenalty,
	}, nil
}
