// Package experiments regenerates every table and figure of the paper's
// evaluation from this repository's implementation. Each experiment runs
// the calibrated workload streams through the real LATCH machinery and
// renders a paper-style table, printing the published value beside the
// measured one wherever the paper reports an exact number.
//
// Shared simulation passes (the temporal characterization and the
// registry-driven backend passes) are memoized on the Runner so
// regenerating several related artifacts does not repeat work. The
// integration schemes are not hard-coded: the Runner enumerates them
// through the engine registry (see backend.go), so a newly registered
// backend is runnable — and tabulatable — without touching this package.
//
// Every experiment decomposes into independent per-workload jobs that run
// on a bounded worker pool (Options.Workers, default one per CPU). Each job
// derives its RNG seed from its identity — (experiment pass, workload
// name), via workload.DeriveSeed — so the rendered tables are bit-identical
// whatever the worker count or scheduling; TestParallelMatchesSerial and
// the golden tables enforce this.
package experiments

import (
	"fmt"
	"sync"

	"latch/internal/complexity"
	"latch/internal/engine"
	"latch/internal/latch"
	"latch/internal/policy"
	// Imported directly, though this package reaches the shadow only
	// through workload.Generator: without the import, go1.24 does not
	// inline the Shadow methods that call into package mem, such as
	// MustTaintedAt in Figure6's per-event loop, and the catalog pass
	// costs about 15% more.
	_ "latch/internal/shadow"
	"latch/internal/stats"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/workload"
)

// Options sizes the simulation runs. The paper streams 500M instructions
// per benchmark; scaled-down defaults keep a full regeneration to a few
// minutes while preserving every reported shape. All results are rates, so
// run length affects noise, not means.
type Options struct {
	// Events is the stream length for cache and overhead experiments.
	Events uint64
	// EpochEvents is the stream length for the temporal characterization
	// (Tables 1-2, Figure 5); it must be a large multiple of the longest
	// epoch class (1M instructions) for the top Figure 5 bucket to fill.
	EpochEvents uint64
	// Fig6Events is the stream length for the granularity sweep.
	Fig6Events uint64

	// Workers bounds the worker pool that runs an experiment's independent
	// per-workload jobs. Zero or negative selects one worker per available
	// CPU; 1 forces the serial reference schedule. Results are identical
	// for every value — only elapsed time changes.
	Workers int

	// Observer, when non-nil, receives the telemetry events of every
	// simulation pass that runs a LATCH module (hlatch, slatch, platch,
	// the co-simulations, and the ablation sweeps). It must be safe for
	// concurrent use: passes fan out across the worker pool. Observers are
	// passive — attaching one cannot change any table (the golden tests
	// enforce this).
	Observer telemetry.Observer

	// Policy, when non-zero, overrides the default taint policy in every
	// pass: program-driven passes (co-simulation, PIFT, attacks) run
	// under it directly, and its Sampling spec is threaded into every
	// workload generator and backend run (selective tracing). The zero
	// value keeps the historical behavior — policy.Default() for
	// programs, sampling disabled for streams — so existing goldens are
	// untouched.
	Policy policy.Policy

	// SeedSalt, when non-empty, is mixed into every job's derived RNG
	// seed. The paper-grid pipeline runs the same experiment once per
	// repeat with a distinct salt, so repeats sample genuinely different
	// streams while each repeat stays bit-deterministic. Empty keeps the
	// historical (pass, workload)-only derivation, so the golden tables
	// are untouched.
	SeedSalt string
}

// DefaultOptions returns run lengths suitable for interactive use.
func DefaultOptions() Options {
	return Options{Events: 2_000_000, EpochEvents: 8_000_000, Fig6Events: 4_000_000}
}

// Runner executes experiments with memoized simulation passes. A Runner is
// safe for concurrent use: the memoized passes are serialized by a mutex
// and the per-workload jobs inside a pass run on the worker pool.
type Runner struct {
	opts Options

	mu       sync.Mutex // guards the memoized passes below
	temporal map[workload.Suite][]temporalResult
	backends map[backendKey][]engine.Result
	typed    map[backendKey]any // memoized typedPass slices, one []T per key
	frontier []FrontierRow      // memoized selective-tracing sweep

	jobMu sync.Mutex // guards jobs
	jobs  []JobStat

	metricsMu sync.Mutex // guards metrics
	metrics   map[string]*telemetry.Metrics
}

// NewRunner builds a Runner.
func NewRunner(o Options) *Runner {
	return &Runner{
		opts:     o,
		temporal: make(map[workload.Suite][]temporalResult),
		backends: make(map[backendKey][]engine.Result),
		typed:    make(map[backendKey]any),
		metrics:  make(map[string]*telemetry.Metrics),
	}
}

// passObserver returns the observer to attach to one simulation pass: the
// pass's own metrics registry, fanned out to the caller-supplied observer
// when Options.Observer is set. Each pass gets a stable registry, so
// memoized passes keep their counters across experiments that share them.
func (r *Runner) passObserver(pass string) telemetry.Observer {
	r.metricsMu.Lock()
	m, ok := r.metrics[pass]
	if !ok {
		m = telemetry.NewMetrics()
		r.metrics[pass] = m
	}
	r.metricsMu.Unlock()
	return telemetry.Multi(m, r.opts.Observer)
}

// MetricsReport snapshots the per-pass telemetry registries accumulated so
// far, keyed by pass name (hlatch, slatch, platch, cosim, platch-cosim).
// Only passes that have run appear.
func (r *Runner) MetricsReport() map[string]telemetry.Snapshot {
	r.metricsMu.Lock()
	defer r.metricsMu.Unlock()
	out := make(map[string]telemetry.Snapshot, len(r.metrics))
	for pass, m := range r.metrics {
		out[pass] = m.Snapshot()
	}
	return out
}

// policy returns the effective taint policy for program-driven passes:
// Options.Policy when set, policy.Default() otherwise.
func (r *Runner) policy() policy.Policy {
	if r.opts.Policy == (policy.Policy{}) {
		return policy.Default()
	}
	return r.opts.Policy
}

// sampling returns the selective-tracing spec threaded into workload
// generators (the zero spec — sampling disabled — unless Options.Policy
// carries one).
func (r *Runner) sampling() policy.Sampling {
	return r.opts.Policy.Sampling
}

// jobProfile returns the named profile reseeded for one parallel job: the
// job's RNG stream depends only on (pass, workload) identity — plus the
// Runner's SeedSalt, when set — never on worker scheduling, which is what
// keeps parallel output bit-identical to serial output. The salt label is
// appended only when non-empty so unsalted runs derive the exact
// historical seeds.
func (r *Runner) jobProfile(pass, name string) (workload.Profile, error) {
	p, err := workload.Get(name)
	if err != nil {
		return workload.Profile{}, err
	}
	if r.opts.SeedSalt == "" {
		p.Seed = workload.DeriveSeed(p.Seed, pass, name)
	} else {
		p.Seed = workload.DeriveSeed(p.Seed, pass, name, "salt:"+r.opts.SeedSalt)
	}
	return p, nil
}

// temporalResult is one benchmark's temporal characterization.
type temporalResult struct {
	Name         string
	TaintPct     float64
	EpochShares  []float64
	PagesTainted int
	Events       uint64
}

// Temporal runs (or returns the memoized) temporal characterization pass.
// Each benchmark is one pool job.
func (r *Runner) Temporal(s workload.Suite) ([]temporalResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if res, ok := r.temporal[s]; ok {
		return res, nil
	}
	names := workload.BySuite(s)
	out := make([]temporalResult, len(names))
	err := r.runJobs("temporal", names, func(i int, name string, js *JobStat) error {
		p, err := r.jobProfile("temporal", name)
		if err != nil {
			return err
		}
		return engine.Generate(p, r.sampling(), func(g *workload.Generator, buf []trace.Event) error {
			a := trace.NewEpochAnalyzer()
			g.RunBatches(r.opts.EpochEvents, buf, func(evs []trace.Event) {
				for _, ev := range evs {
					a.Consume(ev)
				}
			})
			a.Finish()
			js.Events = a.TotalInstructions()
			out[i] = temporalResult{
				Name:         name,
				TaintPct:     a.TaintedPercent(),
				EpochShares:  a.EpochShares(),
				PagesTainted: g.Shadow().EverTaintedPages(),
				Events:       a.TotalInstructions(),
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	r.temporal[s] = out
	return out, nil
}

// Table1 regenerates Table 1: percentage of instructions touching tainted
// data, SPEC 2006.
func (r *Runner) Table1() (*stats.Table, error) {
	return r.taintPctTable(workload.SuiteSPEC, "Table 1")
}

// Table2 regenerates Table 2: same metric for the network applications.
func (r *Runner) Table2() (*stats.Table, error) {
	return r.taintPctTable(workload.SuiteNetwork, "Table 2")
}

func (r *Runner) taintPctTable(s workload.Suite, title string) (*stats.Table, error) {
	res, err := r.Temporal(s)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(title+": instructions touching tainted data (%)",
		"benchmark", "measured %", "paper %")
	for _, tr := range res {
		t.AddRowf(tr.Name, tr.TaintPct, workload.MustGet(tr.Name).TaintPct)
	}
	return t, nil
}

// Figure5 regenerates Figure 5: the share of instructions executed inside
// taint-free epochs of at least 100/1K/10K/100K/1M instructions.
func (r *Runner) Figure5() (*stats.Table, error) {
	t := stats.NewTable("Figure 5: % of instructions in taint-free epochs of at least N instructions",
		"benchmark", ">=100", ">=1K", ">=10K", ">=100K", ">=1M")
	for _, s := range []workload.Suite{workload.SuiteSPEC, workload.SuiteNetwork} {
		res, err := r.Temporal(s)
		if err != nil {
			return nil, err
		}
		for _, tr := range res {
			t.AddRowf(tr.Name,
				100*tr.EpochShares[0], 100*tr.EpochShares[1], 100*tr.EpochShares[2],
				100*tr.EpochShares[3], 100*tr.EpochShares[4])
		}
	}
	return t, nil
}

// Table3 regenerates Table 3: page-granularity taint distribution, SPEC.
func (r *Runner) Table3() (*stats.Table, error) { return r.pagesTable(workload.SuiteSPEC, "Table 3") }

// Table4 regenerates Table 4: page-granularity taint distribution, network
// applications.
func (r *Runner) Table4() (*stats.Table, error) {
	return r.pagesTable(workload.SuiteNetwork, "Table 4")
}

func (r *Runner) pagesTable(s workload.Suite, title string) (*stats.Table, error) {
	t := stats.NewTable(title+": distribution of taint at page granularity",
		"benchmark", "pages accessed", "pages tainted", "tainted %", "paper %")
	names := workload.BySuite(s)
	rows := make([][]any, len(names))
	err := r.runJobs("pages", names, func(i int, name string, js *JobStat) error {
		p, err := r.jobProfile("pages", name)
		if err != nil {
			return err
		}
		return engine.Generate(p, r.sampling(), func(g *workload.Generator, _ []trace.Event) error {
			tainted := g.Shadow().EverTaintedPages()
			rows[i] = []any{name, p.PagesAccessed, tainted,
				100 * float64(tainted) / float64(p.PagesAccessed),
				100 * float64(p.PagesTainted) / float64(p.PagesAccessed)}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRowf(row...)
	}
	return t, nil
}

// Fig6Granularities are the taint-domain sizes swept by Figure 6.
var Fig6Granularities = []uint32{8, 16, 32, 64, 128, 256}

// Figure6 regenerates Figure 6: the taint-detection multiplier (coarse
// detections over byte-precise detections) as domain size grows. Each
// benchmark's sweep is one pool job.
func (r *Runner) Figure6() (*stats.Table, error) {
	t := stats.NewTable("Figure 6: taint detection multiplier vs. domain size (1.0 = byte-precise)",
		"benchmark", "8B", "16B", "32B", "64B", "128B", "256B")
	names := append(workload.BySuite(workload.SuiteSPEC), workload.BySuite(workload.SuiteNetwork)...)
	rows := make([][]any, len(names))
	err := r.runJobs("figure6", names, func(i int, name string, js *JobStat) error {
		p, err := r.jobProfile("figure6", name)
		if err != nil {
			return err
		}
		coarse := make([]uint64, len(Fig6Granularities))
		var precise uint64
		err = engine.Generate(p, r.sampling(), func(g *workload.Generator, buf []trace.Event) error {
			sh := g.Shadow()
			g.RunBatches(r.opts.Fig6Events, buf, func(evs []trace.Event) {
				js.Events += uint64(len(evs))
				for _, ev := range evs {
					if !ev.IsMem {
						continue
					}
					js.Checks++
					if ev.Tainted {
						precise++
					}
					for gi, gsize := range Fig6Granularities {
						if sh.MustTaintedAt(ev.Addr, gsize) {
							coarse[gi]++
						}
					}
				}
			})
			return nil
		})
		if err != nil {
			return err
		}
		row := make([]any, 0, 7)
		row = append(row, name)
		for gi := range Fig6Granularities {
			if precise == 0 {
				row = append(row, 0.0)
				continue
			}
			row = append(row, float64(coarse[gi])/float64(precise))
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRowf(row...)
	}
	return t, nil
}

// Figure13 regenerates Figure 13: S-LATCH and software-only DIFT overheads
// over native execution.
func (r *Runner) Figure13() (*stats.Table, error) {
	t := stats.NewTable("Figure 13: performance overhead over native execution",
		"benchmark", "libdft overhead", "S-LATCH overhead", "speedup vs libdft")
	var overheads []float64
	var speedups []float64
	for _, s := range []workload.Suite{workload.SuiteSPEC, workload.SuiteNetwork} {
		res, err := r.SLatch(s)
		if err != nil {
			return nil, err
		}
		for _, sr := range res {
			t.AddRowf(sr.Benchmark, sr.LibdftOverhead(), sr.Overhead(), sr.SpeedupVsLibdft())
			if s == workload.SuiteSPEC {
				overheads = append(overheads, 1+sr.Overhead())
				speedups = append(speedups, sr.SpeedupVsLibdft())
			}
		}
	}
	if hm, err := stats.HarmonicMean(overheads); err == nil {
		// A successful harmonic mean implies a non-empty suite, so the
		// matching speedup slice is non-empty too.
		t.AddRowf("SPEC harmonic mean", "", hm-1, stats.MustMean(speedups))
		t.AddRowf("paper reference", "", PaperSLatchHarmonicMeanOverhead, PaperSLatchMeanSpeedup)
	}
	return t, nil
}

// Figure14 regenerates Figure 14: the sources of S-LATCH overhead, as
// shares of total overhead cycles.
func (r *Runner) Figure14() (*stats.Table, error) {
	t := stats.NewTable("Figure 14: sources of S-LATCH overhead (% of overhead cycles)",
		"benchmark", "libdft", "control xfer", "fp checks", "ctc miss", "reset")
	for _, s := range []workload.Suite{workload.SuiteSPEC, workload.SuiteNetwork} {
		res, err := r.SLatch(s)
		if err != nil {
			return nil, err
		}
		for _, sr := range res {
			c := sr.Cycles
			total := float64(c.Total() - c.Base)
			if total == 0 {
				t.AddRowf(sr.Benchmark, 0.0, 0.0, 0.0, 0.0, 0.0)
				continue
			}
			t.AddRowf(sr.Benchmark,
				100*float64(c.Libdft)/total,
				100*float64(c.Xfer)/total,
				100*float64(c.FPCheck)/total,
				100*float64(c.CTCMiss)/total,
				100*float64(c.Scan)/total)
		}
	}
	return t, nil
}

// Figure15 regenerates Figure 15: P-LATCH overheads relative to native
// execution, for the simple and optimized LBA integrations.
func (r *Runner) Figure15() (*stats.Table, error) {
	t := stats.NewTable("Figure 15: P-LATCH overhead over native execution",
		"benchmark", "active window frac", "simple", "optimized", "queue-sim simple", "queue-sim optimized")
	var specS, specO, netS, netO []float64
	for _, s := range []workload.Suite{workload.SuiteSPEC, workload.SuiteNetwork} {
		res, err := r.PLatch(s)
		if err != nil {
			return nil, err
		}
		for _, pr := range res {
			t.AddRowf(pr.Benchmark, pr.ActiveWindowFraction,
				pr.OverheadSimple, pr.OverheadOptimized,
				pr.QueueOverheadSimple, pr.QueueOverheadOptimized)
			if s == workload.SuiteSPEC {
				specS = append(specS, pr.OverheadSimple)
				specO = append(specO, pr.OverheadOptimized)
			} else {
				netS = append(netS, pr.OverheadSimple)
				netO = append(netO, pr.OverheadOptimized)
			}
		}
	}
	// Both suites are non-empty by construction (the workload registry
	// always carries them), so the means are defined.
	t.AddRowf("SPEC mean", "", stats.MustMean(specS), stats.MustMean(specO), "", "")
	t.AddRowf("network mean", "", stats.MustMean(netS), stats.MustMean(netO), "", "")
	t.AddRowf("paper SPEC mean", "", PaperPLatchSPECMeanSimple, PaperPLatchSPECMeanOptimized, "", "")
	t.AddRowf("paper network mean", "", PaperPLatchNetworkMeanSimple, PaperPLatchNetworkMeanOptimized, "", "")
	return t, nil
}

// Table6 regenerates Table 6: H-LATCH cache performance for SPEC 2006.
func (r *Runner) Table6() (*stats.Table, error) { return r.cacheTable(workload.SuiteSPEC, "Table 6") }

// Table7 regenerates Table 7: H-LATCH cache performance for the network
// applications.
func (r *Runner) Table7() (*stats.Table, error) {
	return r.cacheTable(workload.SuiteNetwork, "Table 7")
}

func (r *Runner) cacheTable(s workload.Suite, title string) (*stats.Table, error) {
	res, err := r.HLatch(s)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(title+": H-LATCH cache performance (measured | paper)",
		"benchmark", "CTC miss %", "t$ miss %", "combined %", "baseline %", "avoided %")
	pair := func(measured, paper float64) string {
		return stats.FormatFloat(measured) + " | " + stats.FormatFloat(paper)
	}
	for _, hr := range res {
		ctc, tc, comb, base, avoid, ok := PaperCachePerf(hr.Benchmark)
		if !ok {
			t.AddRowf(hr.Benchmark, hr.CTCMissPct, hr.TCacheMissPct, hr.CombinedMissPct,
				hr.BaselineMissPct, hr.AvoidedPct)
			continue
		}
		t.AddRow(hr.Benchmark,
			pair(hr.CTCMissPct, ctc), pair(hr.TCacheMissPct, tc),
			pair(hr.CombinedMissPct, comb), pair(hr.BaselineMissPct, base),
			pair(hr.AvoidedPct, avoid))
	}
	return t, nil
}

// Figure16 regenerates Figure 16: the share of memory accesses resolved by
// each element of the H-LATCH taint-checking stack.
func (r *Runner) Figure16() (*stats.Table, error) {
	t := stats.NewTable("Figure 16: % of memory accesses handled by each taint caching element",
		"benchmark", "TLB", "CTC", "t-cache")
	for _, s := range []workload.Suite{workload.SuiteSPEC, workload.SuiteNetwork} {
		res, err := r.HLatch(s)
		if err != nil {
			return nil, err
		}
		for _, hr := range res {
			t.AddRowf(hr.Benchmark, 100*hr.ShareTLB, 100*hr.ShareCTC, 100*hr.SharePrecise)
		}
	}
	return t, nil
}

// Complexity regenerates the §6.4 FPGA complexity analysis.
func (r *Runner) Complexity() (*stats.Table, error) {
	t := stats.NewTable("Complexity (AO486 + LATCH, §6.4): measured | paper",
		"metric", "value")
	pair := func(measured, paper float64) string {
		return stats.FormatFloat(measured) + " | " + stats.FormatFloat(paper)
	}
	eager := complexity.Compute(latch.DefaultConfig())
	lazyCfg := latch.DefaultConfig()
	lazyCfg.Clear = latch.LazyClear
	lazy := complexity.Compute(lazyCfg)
	t.AddRow("logic elements increase %", pair(eager.LEIncreasePct, PaperLEIncreasePct))
	t.AddRow("memory bits increase %", pair(eager.MemBitsIncreasePct, PaperMemBitsIncreasePct))
	t.AddRow("dynamic power increase %", pair(eager.DynPowerIncreasePct, PaperDynPowerIncreasePct))
	t.AddRow("static power increase %", pair(eager.StaticPowerIncreasePct, PaperStatPowerIncreasePct))
	t.AddRowf("cycle time impact", fmt.Sprintf("%v | none", eager.CycleTimeImpact()))
	t.AddRowf("module state bits (H-LATCH/eager)", eager.TotalBits)
	t.AddRowf("module state bits (S-LATCH/lazy)", lazy.TotalBits)
	t.AddRowf("CTC payload bytes", latch.DefaultConfig().CTCPayloadBytes())
	return t, nil
}

// Experiment couples an id with its generator, for the CLI and benches.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Runner) (*stats.Table, error)
}

// Catalog lists every regenerable artifact in paper order.
var Catalog = []Experiment{
	{"table1", "Table 1: taint % (SPEC)", (*Runner).Table1},
	{"table2", "Table 2: taint % (network)", (*Runner).Table2},
	{"figure5", "Figure 5: taint-free epochs", (*Runner).Figure5},
	{"table3", "Table 3: page taint (SPEC)", (*Runner).Table3},
	{"table4", "Table 4: page taint (network)", (*Runner).Table4},
	{"figure6", "Figure 6: granularity sweep", (*Runner).Figure6},
	{"figure13", "Figure 13: S-LATCH overhead", (*Runner).Figure13},
	{"figure14", "Figure 14: S-LATCH breakdown", (*Runner).Figure14},
	{"figure15", "Figure 15: P-LATCH overhead", (*Runner).Figure15},
	{"table6", "Table 6: H-LATCH caches (SPEC)", (*Runner).Table6},
	{"table7", "Table 7: H-LATCH caches (network)", (*Runner).Table7},
	{"figure16", "Figure 16: resolution levels", (*Runner).Figure16},
	{"complexity", "§6.4: FPGA complexity", (*Runner).Complexity},
	{"ablation-domain", "Ablation: taint-domain size sweep", (*Runner).AblationDomainSize},
	{"ablation-timeout", "Ablation: S-LATCH timeout sweep", (*Runner).AblationTimeout},
	{"ablation-ctc", "Ablation: CTC size sweep", (*Runner).AblationCTCSize},
	{"ablation-clear", "Ablation: clear-bit machinery on/off", (*Runner).AblationClearBits},
	{"ablation-queue", "Ablation: P-LATCH queue depth sweep", (*Runner).AblationQueueDepth},
	{"cosim", "End-to-end S-LATCH co-simulation", (*Runner).CoSim},
	{"conventional", "Intro claim: 4KiB conventional vs 320B H-LATCH stack", (*Runner).Conventional},
	{"platch-cosim", "Two-core P-LATCH co-simulation", (*Runner).ParallelCoSim},
	{"pift", "Classical DTA vs PIFT-style propagation", (*Runner).PIFT},
	{"attacks", "Attack detection matrix (canned exploits per backend)", (*Runner).Attacks},
	{"sampling", "Selective tracing: detection vs overhead frontier", (*Runner).SamplingFrontier},
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Catalog {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}
