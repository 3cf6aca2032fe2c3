// Package hlatch implements H-LATCH (§5.3): the integration of the LATCH
// module with hardware-based DIFT. The LATCH coarse-checking stack — TLB
// taint bits, then the tiny Coarse Taint Cache — screens memory-operand
// checks before they reach the byte-precise taint cache, which can therefore
// be scaled down to a fraction of a conventional implementation's size
// without sacrificing hit rates (Tables 6–7, Figure 16).
//
// The scheme is an engine.Backend over the shared Session: it drives the
// core latch.Module with a benchmark's memory reference stream under the
// eager (hardware AND-chain) clear policy of §5.3.1, and simultaneously
// feeds an identical, unfiltered taint cache to produce the paper's
// "without LATCH" comparison in the same pass. It registers itself with the
// engine under the name "hlatch".
package hlatch

import (
	"context"

	"latch/internal/cache"
	"latch/internal/engine"
	"latch/internal/latch"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/workload"
)

func init() {
	engine.Register(engine.Scheme{
		Name:  "hlatch",
		Title: "H-LATCH: reduced-complexity hardware DIFT (§5.3)",
		New:   func() engine.Backend { return &backend{cfg: DefaultConfig()} },
	})
}

// Result holds the cache-performance metrics of one benchmark run — the
// rows of Tables 6 and 7 plus the Figure 16 level shares.
type Result struct {
	Benchmark string
	Events    uint64 // total instructions streamed
	Checks    uint64 // memory-operand checks performed

	Latch latch.Stats
	TLB   cache.Stats

	// Derived, in paper units.
	CTCMissPct      float64 // CTC misses / checks x100
	TCacheMissPct   float64 // filtered t-cache misses / checks x100
	CombinedMissPct float64
	BaselineMissPct float64 // unfiltered t-cache misses / accesses x100
	AvoidedPct      float64 // baseline misses eliminated by filtering

	ShareTLB     float64 // fraction of checks resolved at the TLB
	ShareCTC     float64
	SharePrecise float64
}

// BenchmarkName implements engine.Result.
func (r Result) BenchmarkName() string { return r.Benchmark }

// EventCount implements engine.Result.
func (r Result) EventCount() uint64 { return r.Events }

// CheckCount implements engine.Result.
func (r Result) CheckCount() uint64 { return r.Checks }

// Columns implements engine.Result.
func (r Result) Columns() []engine.Column {
	return []engine.Column{
		{Label: "combined miss %", Value: r.CombinedMissPct},
		{Label: "baseline miss %", Value: r.BaselineMissPct},
		{Label: "avoided %", Value: r.AvoidedPct},
		{Label: "tlb share", Value: r.ShareTLB},
	}
}

// Config parameterizes an H-LATCH run.
type Config struct {
	Latch  latch.Config
	Events uint64 // stream length in instructions

	// Observer, when non-nil, receives the module's check-path telemetry
	// (coarse-check resolves, cache misses, CTC evictions). It must be safe
	// for concurrent use when runs on several goroutines share it, as the
	// experiment harness's per-pass observers are (telemetry.Metrics is).
	// Observers never affect results.
	Observer telemetry.Observer
}

// DefaultConfig returns the paper's H-LATCH configuration (§6.4): the
// default LATCH geometry with the eager hardware clear chain and the
// unfiltered baseline enabled.
func DefaultConfig() Config {
	lc := latch.DefaultConfig()
	lc.Clear = latch.EagerClear
	lc.BaselineTCache = true
	return Config{Latch: lc, Events: 2_000_000}
}

// backend is the H-LATCH per-event policy: every memory operand goes
// through the module's caching stack; there is no mode switching and no
// cycle model — the results are cache hit rates.
type backend struct {
	cfg Config
}

// Name implements engine.Backend.
func (b *backend) Name() string { return "hlatch" }

// Config implements engine.Backend.
func (b *backend) Config() latch.Config { return b.cfg.Latch }

// Init implements engine.Backend.
func (b *backend) Init(*engine.Session) error { return nil }

// Step implements engine.Backend. H-LATCH charges no miss cycles: the
// hardware stack is evaluated by hit rates, not a runtime model.
func (b *backend) Step(s *engine.Session, ev trace.Event) {
	if ev.IsMem {
		s.Module.CheckMem(ev.Addr, int(ev.Size))
	}
}

// StepBatch implements engine.BatchBackend. H-LATCH's per-event logic never
// reads the cursor, so it advances wholesale and only memory events pay any
// per-event work at all.
func (b *backend) StepBatch(s *engine.Session, evs []trace.Event) {
	s.Events += uint64(len(evs))
	for i := range evs {
		if evs[i].IsMem {
			s.Module.CheckMem(evs[i].Addr, int(evs[i].Size))
		}
	}
}

// Finish implements engine.Backend.
func (b *backend) Finish(s *engine.Session) engine.Result {
	st := s.Module.Stats()
	tlbShare, ctcShare, preciseShare := st.ShareResolved()
	return Result{
		Benchmark:       s.Profile.Name,
		Events:          s.Events,
		Checks:          st.Checks,
		Latch:           st,
		TLB:             s.Module.TLBStats(),
		CTCMissPct:      st.CTCMissPercent(),
		TCacheMissPct:   st.TCacheMissPercent(),
		CombinedMissPct: st.CombinedMissPercent(),
		BaselineMissPct: st.BaselineMissPercent(),
		AvoidedPct:      st.MissesAvoidedPercent(),
		ShareTLB:        tlbShare,
		ShareCTC:        ctcShare,
		SharePrecise:    preciseShare,
	}
}

// Run simulates one benchmark through the H-LATCH caching stack.
func Run(p workload.Profile, cfg Config) (Result, error) {
	res, err := engine.RunProfile(context.Background(), &backend{cfg: cfg}, p,
		engine.RunOptions{Events: cfg.Events, Observer: cfg.Observer})
	if err != nil {
		return Result{}, err
	}
	return res.(Result), nil
}
