// Package slatch implements S-LATCH (§5.1): single-core software DIFT
// accelerated by the LATCH hardware module. Execution alternates between two
// modes:
//
//   - hardware mode: the native image runs at full speed while the LATCH
//     module checks every memory operand against the coarse taint state (and
//     register operands against the TRF). A coarse positive traps to the
//     exception handler, which filters false positives against the precise
//     state (via ltnt) and, on a true positive, transfers control to the
//     DBI-instrumented image;
//
//   - software mode: the instrumented image executes with the benchmark's
//     full libdft slowdown, returning to hardware after 1000 instructions
//     without taint manipulation (§5.1.3), after scanning the CTC clear bits
//     (§5.1.4).
//
// The scheme is an engine.Backend: the shared Session drives the stream,
// owns the epoch/trap state machine, and accounts cycles into the Figure 14
// categories; this package contributes only the S-LATCH per-event policy.
// It registers itself with the engine under the name "slatch".
package slatch

import (
	"context"
	"fmt"

	"latch/internal/engine"
	"latch/internal/latch"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/workload"
)

func init() {
	engine.Register(engine.Scheme{
		Name:  "slatch",
		Title: "S-LATCH: accelerated single-core software DIFT (§5.1)",
		New:   func() engine.Backend { return &backend{cfg: DefaultConfig()} },
	})
}

// Config parameterizes the S-LATCH cost model. The cycle constants live in
// the shared engine.Costs table (§6.1); control-transfer costs combine the
// getcontext/setcontext pair with the per-benchmark Pin code-cache latency.
type Config struct {
	Latch latch.Config

	// Costs is the shared cycle-cost table: context switches, FP checks,
	// clear-bit scans, and the §5.1.3 software-mode timeout.
	Costs engine.Costs

	Events uint64 // stream length

	// Observer, when non-nil, receives the run's telemetry: the module's
	// check-path events plus an EpochTransition per mode switch. It must be
	// safe for concurrent use when runs on several goroutines share it, as
	// the experiment harness's per-pass observers are (telemetry.Metrics
	// is). Observers never affect results.
	Observer telemetry.Observer
}

// DefaultConfig returns the paper's S-LATCH configuration: lazy clear bits,
// no hardware t-cache baseline, 1000-instruction timeout, 150-cycle CTC
// miss penalty.
func DefaultConfig() Config {
	lc := latch.DefaultConfig()
	lc.Clear = latch.LazyClear
	lc.BaselineTCache = false
	return Config{
		Latch:  lc,
		Costs:  engine.DefaultCosts(),
		Events: 2_000_000,
	}
}

// Result is the outcome of one benchmark under S-LATCH, with the Figure 14
// cycle breakdown.
type Result struct {
	Benchmark string
	Events    uint64

	HWInstrs uint64 // instructions executed under hardware monitoring
	SWInstrs uint64 // instructions executed under software DIFT
	Switches uint64 // hardware->software transitions

	// Cycles is the unified cycle accounting (Figure 14 categories; the
	// Scan category is the clear-bit reset work).
	Cycles engine.Cycles

	FalsePositives uint64

	LibdftSlowdown float64 // the benchmark's software-only slowdown

	Latch latch.Stats
}

// TotalCycles returns the modeled S-LATCH runtime.
func (r Result) TotalCycles() uint64 { return r.Cycles.Total() }

// Overhead returns the fractional overhead over native execution
// (Figure 13's y-axis; 0.6 means 60%).
func (r Result) Overhead() float64 { return r.Cycles.Overhead() }

// LibdftOverhead returns the software-only baseline overhead.
func (r Result) LibdftOverhead() float64 { return r.LibdftSlowdown - 1 }

// SpeedupVsLibdft returns how much faster S-LATCH is than continuous
// software DIFT.
func (r Result) SpeedupVsLibdft() float64 {
	t := r.Cycles.Total()
	if t == 0 {
		return 0
	}
	return r.LibdftSlowdown * float64(r.Cycles.Base) / float64(t)
}

// BenchmarkName implements engine.Result.
func (r Result) BenchmarkName() string { return r.Benchmark }

// EventCount implements engine.Result.
func (r Result) EventCount() uint64 { return r.Events }

// CheckCount implements engine.Result.
func (r Result) CheckCount() uint64 { return r.Latch.Checks }

// Columns implements engine.Result.
func (r Result) Columns() []engine.Column {
	return []engine.Column{
		{Label: "overhead", Value: r.Overhead()},
		{Label: "speedup vs libdft", Value: r.SpeedupVsLibdft()},
		{Label: "switches", Value: r.Switches},
		{Label: "false positives", Value: r.FalsePositives},
	}
}

// backend is the S-LATCH per-event policy over the engine's shared epoch
// machine.
type backend struct {
	cfg Config
}

// Name implements engine.Backend.
func (b *backend) Name() string { return "slatch" }

// Config implements engine.Backend.
func (b *backend) Config() latch.Config { return b.cfg.Latch }

// Init implements engine.Backend: validate the clear policy and arm the
// epoch machine with the benchmark's calibrated slowdown and code-cache
// latency.
func (b *backend) Init(s *engine.Session) error {
	if b.cfg.Latch.Clear == latch.EagerClear {
		// S-LATCH has no hardware taint cache to drive the eager AND-chain;
		// it uses lazy clear bits (§5.1.4), or NoClear for the ablation.
		return fmt.Errorf("slatch: S-LATCH requires the lazy or disabled clear policy")
	}
	slowdown := s.Profile.LibdftSlowdown
	if slowdown < 1 {
		slowdown = 1 // a profile without a calibrated slowdown runs software mode at native speed
	}
	codeCacheLat := s.Profile.CodeCacheLat
	if codeCacheLat == 0 {
		codeCacheLat = b.cfg.Costs.CodeCacheLat
	}
	s.ConfigureEpochs(b.cfg.Costs, slowdown-1, codeCacheLat)
	return nil
}

// Step implements engine.Backend: the per-instruction S-LATCH protocol.
func (b *backend) Step(s *engine.Session, ev trace.Event) {
	s.Cycles.Base++
	switch s.Mode() {
	case engine.ModeHardware:
		s.HWInstrs++
		// The precise Tainted flag stands in for the TRF check on register
		// operands: a tainted source register traps, and the handler
		// confirms it. The calibrated generators only flag memory events
		// whose bytes are precisely tainted, which the coarse check already
		// traps and confirms, so stream results do not depend on this rule;
		// program-driven runs (cosim.Monitor) flag register operands too.
		positive, truly := ev.Tainted, ev.Tainted
		if ev.IsMem {
			check := s.CheckMem(ev.Addr, int(ev.Size))
			positive = positive || check.CoarsePositive
			truly = truly || check.TrulyTainted
		}
		if !positive {
			return
		}
		// Trap to the exception handler, which validates against the
		// precise state.
		s.Trap()
		if !truly {
			s.DismissTrap()
			return // dismissed; hardware mode continues
		}
		// True positive: transfer control to the instrumented image.
		s.SwitchToSoftware()
	case engine.ModeSoftware:
		s.SWInstrs++
		if s.SoftwareStep(ev.Tainted) {
			// Timeout: scan clear bits, restore the native context, resume
			// hardware monitoring.
			s.ReturnToHardware()
		}
	}
}

// StepBatch implements engine.BatchBackend: the commit-stream-FIFO drain.
// The cursor advances before each event so epoch transitions and traps see
// the exact event positions the per-event driver would deliver.
func (b *backend) StepBatch(s *engine.Session, evs []trace.Event) {
	for i := range evs {
		s.Events++
		b.Step(s, evs[i])
	}
}

// Finish implements engine.Backend.
func (b *backend) Finish(s *engine.Session) engine.Result {
	return Result{
		Benchmark:      s.Profile.Name,
		Events:         s.Events,
		HWInstrs:       s.HWInstrs,
		SWInstrs:       s.SWInstrs,
		Switches:       s.Switches,
		Cycles:         s.CycleReport(),
		FalsePositives: s.FalseTraps,
		LibdftSlowdown: s.Profile.LibdftSlowdown,
		Latch:          s.Module.Stats(),
	}
}

// Run simulates one benchmark under S-LATCH.
func Run(p workload.Profile, cfg Config) (Result, error) {
	res, err := engine.RunProfile(context.Background(), &backend{cfg: cfg}, p,
		engine.RunOptions{Events: cfg.Events, Observer: cfg.Observer})
	if err != nil {
		return Result{}, err
	}
	return res.(Result), nil
}
