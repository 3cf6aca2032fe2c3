package latch

import (
	"context"
	"fmt"

	"latch/internal/engine"
	"latch/internal/workload"

	// The three paper integrations register themselves with the engine on
	// import; the facade links them all so Backends() is fully populated.
	_ "latch/internal/hlatch"
	_ "latch/internal/platch"
	_ "latch/internal/slatch"
)

// BackendResult is the scheme-agnostic outcome of one backend run: the
// benchmark name, event/check counts, and the scheme's headline metric
// columns. Concrete backends return richer structs behind this interface.
type BackendResult = engine.Result

// BackendColumn is one headline metric of a BackendResult.
type BackendColumn = engine.Column

// Backends lists the registered integration names ("hlatch", "platch",
// "slatch", plus any externally registered schemes), sorted.
func Backends() []string { return engine.Names() }

// Workloads lists the calibrated workload profile names a RunRequest may
// name, sorted.
func Workloads() []string { return workload.Names() }

// RunRequest describes one backend run: which integration, over which
// calibrated workload, for how many events, with what observer and policy.
// The zero value of each optional field selects the default, so
// callers state only what they mean:
//
//	res, err := latch.Run(ctx, latch.RunRequest{Backend: "slatch", Workload: "gcc"})
//
// This struct is the facade's growth point: new per-run options become new
// fields, not new positional parameters or new function variants.
type RunRequest struct {
	// Backend is the registered integration name (see Backends). Required.
	Backend string
	// Workload is the calibrated profile name (see Workloads). Required.
	Workload string
	// Events is the requested stream length; 0 selects DefaultRunEvents.
	Events uint64
	// Shards names the monitor count. Every backend runs one monitor, so
	// only 0 (the default) and 1 are accepted.
	Shards int
	// Seed, when non-zero, replaces the calibrated profile's RNG seed for
	// this run. The stream stays bit-deterministic per seed; callers that
	// want genuinely distinct repeats (the paper-grid pipeline) derive one
	// seed per repeat. Zero keeps the profile's calibrated seed, so
	// existing runs are byte-identical.
	Seed int64
	// Observer, when non-nil, receives the run's telemetry. Observers are
	// strictly passive and never affect results.
	Observer Observer
	// Policy, when non-nil, is the run's taint policy. For workload-replay
	// runs only the Sampling spec has an effect: it deterministically
	// selects which of the profile's taint runs are materialized and
	// observed tainted (selective tracing). Nil — and equally a policy
	// with sampling disabled or SampleFraction 1.0 — reproduces the
	// default pipeline byte-identically.
	Policy *Policy
}

// DefaultRunEvents is the stream length a RunRequest with Events == 0 runs:
// the 2M-instruction window the paper's cache experiments use.
const DefaultRunEvents = 2_000_000

// Validate reports the first problem with the request without running
// anything: an unknown backend or workload, or a monitor count other than
// one. The serving layer validates requests up front so a bad job is
// rejected before it occupies a worker.
func (r RunRequest) Validate() error {
	if r.Backend == "" {
		return fmt.Errorf("latch: RunRequest.Backend is required (registered: %v)", Backends())
	}
	if _, err := engine.Lookup(r.Backend); err != nil {
		return err
	}
	if r.Workload == "" {
		return fmt.Errorf("latch: RunRequest.Workload is required (known: %v)", Workloads())
	}
	if _, err := workload.Get(r.Workload); err != nil {
		return err
	}
	if r.Shards != 0 && r.Shards != 1 {
		return fmt.Errorf("latch: RunRequest.Shards must be 0 or 1 (every backend runs one monitor), got %d", r.Shards)
	}
	if r.Policy != nil {
		if err := r.Policy.Validate(); err != nil {
			return fmt.Errorf("latch: %w", err)
		}
	}
	return nil
}

// Run streams one calibrated workload through the named backend. The
// context bounds the run: cancellation or a deadline stops the stream
// within engine.CancelCheckEvents events — with the backend fully
// finalized, its monitor joined — and returns ctx.Err().
func Run(ctx context.Context, req RunRequest) (BackendResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	p, err := workload.Get(req.Workload)
	if err != nil {
		return nil, err
	}
	if req.Seed != 0 {
		p.Seed = req.Seed
	}
	sch, err := engine.Lookup(req.Backend)
	if err != nil {
		return nil, err
	}
	events := req.Events
	if events == 0 {
		events = DefaultRunEvents
	}
	opts := engine.RunOptions{
		Events:   events,
		Observer: req.Observer,
	}
	if req.Policy != nil {
		opts.Policy = *req.Policy
	}
	return engine.RunProfile(ctx, sch.New(), p, opts)
}
