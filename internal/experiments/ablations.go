package experiments

import (
	"context"
	"fmt"

	"latch/internal/engine"
	"latch/internal/hlatch"
	"latch/internal/latch"
	"latch/internal/platch"
	"latch/internal/slatch"
	"latch/internal/stats"
	"latch/internal/trace"
)

// Ablation studies for the design choices DESIGN.md §5 calls out. These go
// beyond the paper's published evaluation: they vary one parameter of the
// LATCH design at a time and measure its effect on a representative
// benchmark mix (a well-behaved program, a fragmented one, and a server).
//
// Each benchmark's full parameter sweep is one pool job: the sweep shares
// nothing across benchmarks, and the per-job derived seed keeps the row
// independent of scheduling. Within a job, every sweep point whose module
// shares the domain size runs as one consumer of a single engine.RunSweep
// over one stream; only the domain-size sweep, which needs a shadow per
// point, runs its points one by one. Every run carries the Runner's policy,
// so its sampling reaches each point.

// ablationBenchmarks is the mix used by all sweeps.
var ablationBenchmarks = []string{"gcc", "sphinx3", "apache"}

// AblationDomainSize sweeps the taint-domain granularity (§4.1's central
// trade-off): smaller domains need more CTT words and CTC reach but produce
// fewer false positives; larger domains compress better but mix clean and
// tainted bytes.
func (r *Runner) AblationDomainSize() (*stats.Table, error) {
	t := stats.NewTable("Ablation: taint-domain size (H-LATCH, combined miss % | false positives per 1K checks)",
		"benchmark", "8B", "16B", "32B", "64B", "128B", "256B")
	rows := make([][]any, len(ablationBenchmarks))
	err := r.runJobs("ablation-domain", ablationBenchmarks, func(i int, name string, js *JobStat) error {
		p, err := r.jobProfile("ablation-domain", name)
		if err != nil {
			return err
		}
		opts := r.ablationOptions("ablation-domain")
		row := []any{name}
		for _, ds := range Fig6Granularities {
			cfg := hlatch.DefaultConfig()
			cfg.Latch.DomainSize = ds
			out, err := engine.RunProfile(context.Background(), hlatch.NewBackend(cfg), p, opts)
			if err != nil {
				return err
			}
			res := out.(hlatch.Result)
			js.Events += res.Events
			js.Checks += res.Checks
			fpPerK := 1000 * float64(res.Latch.FalsePositives) / float64(res.Checks)
			row = append(row, fmt.Sprintf("%s|%s",
				stats.FormatFloat(res.CombinedMissPct), stats.FormatFloat(fpPerK)))
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

// AblationTimeout sweeps the S-LATCH software-mode timeout (§5.1.3 fixes
// 1000 instructions): too short thrashes on mode switches, too long wastes
// instrumented execution on taint-free code.
func (r *Runner) AblationTimeout() (*stats.Table, error) {
	timeouts := []uint64{10, 100, 500, 1000, 5000, 20000}
	header := []string{"benchmark"}
	for _, to := range timeouts {
		header = append(header, fmt.Sprintf("%d", to))
	}
	t := stats.NewTable("Ablation: S-LATCH timeout in instructions (overhead over native)", header...)
	rows := make([][]any, len(ablationBenchmarks))
	err := r.runJobs("ablation-timeout", ablationBenchmarks, func(i int, name string, js *JobStat) error {
		p, err := r.jobProfile("ablation-timeout", name)
		if err != nil {
			return err
		}
		backends := make([]engine.Backend, len(timeouts))
		for k, to := range timeouts {
			cfg := slatch.DefaultConfig()
			cfg.Costs.TimeoutInstrs = to
			backends[k] = slatch.NewBackend(cfg)
		}
		out, err := engine.RunSweep(context.Background(), p, backends, r.ablationOptions("ablation-timeout"))
		if err != nil {
			return err
		}
		row := []any{name}
		for _, o := range out {
			res := o.(slatch.Result)
			js.Events += res.Events
			js.Checks += res.Latch.Checks
			row = append(row, res.Overhead())
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

// AblationCTCSize sweeps the Coarse Taint Cache capacity; the paper's 16
// entries (64 B of payload) suffice because coarse words cover 2 KiB each
// and tainted working sets are small (§4.1).
func (r *Runner) AblationCTCSize() (*stats.Table, error) {
	sizes := []int{2, 4, 8, 16, 32, 64}
	header := []string{"benchmark"}
	for _, n := range sizes {
		header = append(header, fmt.Sprintf("%d entries", n))
	}
	t := stats.NewTable("Ablation: CTC entries (H-LATCH CTC miss %)", header...)
	benchmarks := append(append([]string(nil), ablationBenchmarks...), "astar")
	rows := make([][]any, len(benchmarks))
	err := r.runJobs("ablation-ctc", benchmarks, func(i int, name string, js *JobStat) error {
		p, err := r.jobProfile("ablation-ctc", name)
		if err != nil {
			return err
		}
		backends := make([]engine.Backend, len(sizes))
		for k, n := range sizes {
			cfg := hlatch.DefaultConfig()
			cfg.Latch.CTCEntries = n
			backends[k] = hlatch.NewBackend(cfg)
		}
		out, err := engine.RunSweep(context.Background(), p, backends, r.ablationOptions("ablation-ctc"))
		if err != nil {
			return err
		}
		row := []any{name}
		for _, o := range out {
			res := o.(hlatch.Result)
			js.Events += res.Events
			js.Checks += res.Checks
			row = append(row, res.CTCMissPct)
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

// AblationClearBits isolates the §5.1.4 clear-bit machinery: a churning
// workload retires taint from whole domains over time; with lazy clear bits
// plus periodic scans (the timeout returns) the CTT tracks the precise
// state, while with clears disabled the coarse state only ever grows and
// every retired domain remains a permanent false-positive source.
func (r *Runner) AblationClearBits() (*stats.Table, error) {
	t := stats.NewTable("Ablation: clear-bit machinery (coarse domains marked vs truly tainted after a churning run)",
		"benchmark", "truly tainted", "marked (eager)", "marked (lazy+scan)", "marked (no clear)", "stale % (no clear)")
	rows := make([][]any, len(ablationBenchmarks))
	err := r.runJobs("ablation-clear", ablationBenchmarks, func(i int, name string, js *JobStat) error {
		p, err := r.jobProfile("ablation-clear", name)
		if err != nil {
			return err
		}
		// Boost churn so domain retirement is the dominant effect.
		p.ChurnProb = 0.8
		p.TaintReuse = 4

		// The three policies are three consumers of one stream.
		backends := make([]engine.Backend, 3)
		for k, clear := range []latch.ClearPolicy{latch.EagerClear, latch.LazyClear, latch.NoClear} {
			cfg := latch.DefaultConfig()
			cfg.BaselineTCache = false
			cfg.Clear = clear
			backends[k] = &clearBackend{cfg: cfg}
		}
		out, err := engine.RunSweep(context.Background(), p, backends, r.ablationOptions("ablation-clear"))
		if err != nil {
			return err
		}
		for _, o := range out {
			js.Events += o.EventCount()
		}
		eager, lazy, none := out[0].(clearResult), out[1].(clearResult), out[2].(clearResult)
		stale := 0.0
		if none.marked > 0 {
			stale = 100 * float64(none.marked-none.truth) / float64(none.marked)
		}
		rows[i] = []any{name, eager.truth, eager.marked, lazy.marked, none.marked, stale}
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

// clearBackend runs the clear-bit ablation's stream through one clear
// policy. Under LazyClear it runs the resident clear-bit scan every
// clearScanEvents events, modeling the periodic timeout returns that trigger
// it, and once more at the end.
type clearBackend struct {
	cfg latch.Config
}

// clearScanEvents is the clear-bit ablation's scan period under LazyClear.
const clearScanEvents = 10_000

// clearResult is one policy's outcome: the coarse domains the CTT still
// marks after the stream, against the domains that truly hold taint.
type clearResult struct {
	bench         string
	events        uint64
	marked, truth int
}

func (r clearResult) BenchmarkName() string { return r.bench }
func (r clearResult) EventCount() uint64    { return r.events }
func (r clearResult) CheckCount() uint64    { return 0 }
func (r clearResult) Columns() []engine.Column {
	return []engine.Column{{Label: "marked", Value: r.marked}, {Label: "truly tainted", Value: r.truth}}
}

func (b *clearBackend) Name() string                 { return "clear-" + b.cfg.Clear.String() }
func (b *clearBackend) Config() latch.Config         { return b.cfg }
func (b *clearBackend) Init(s *engine.Session) error { return nil }

func (b *clearBackend) Step(s *engine.Session, ev trace.Event) {
	if b.cfg.Clear == latch.LazyClear && s.Events%clearScanEvents == 0 {
		s.Module.ScanResidentClears()
	}
}

func (b *clearBackend) Finish(s *engine.Session) engine.Result {
	if b.cfg.Clear == latch.LazyClear {
		s.Module.ScanResidentClears()
	}
	// Ground truth: count domains that still hold taint.
	sh := s.Shadow
	truth := 0
	for _, pn := range sh.EverTaintedPageNumbers() {
		base := pn << 12
		for off := uint32(0); off < 4096; off += b.cfg.DomainSize {
			if sh.DomainTainted(sh.DomainIndex(base + off)) {
				truth++
			}
		}
	}
	return clearResult{bench: s.Profile.Name, events: s.Events, marked: s.Module.CTT().TaintedDomains(), truth: truth}
}

// ablationOptions is the run options of one ablation pass: a quarter of the
// stream length, the pass's observer and the Runner's policy.
func (r *Runner) ablationOptions(pass string) engine.RunOptions {
	return engine.RunOptions{Events: r.opts.Events / 4, Observer: r.passObserver(pass), Policy: r.opts.Policy}
}

// AblationQueueDepth sweeps the P-LATCH shared-FIFO depth in the queue
// simulation: deeper queues absorb longer bursts before the monitored core
// stalls (§5.2).
func (r *Runner) AblationQueueDepth() (*stats.Table, error) {
	depths := []int{16, 64, 256, 1024, 4096}
	header := []string{"benchmark"}
	for _, d := range depths {
		header = append(header, fmt.Sprintf("depth %d", d))
	}
	t := stats.NewTable("Ablation: P-LATCH queue depth (queue-sim overhead, simple LBA)", header...)
	benchmarks := append(append([]string(nil), ablationBenchmarks...), "astar")
	rows := make([][]any, len(benchmarks))
	err := r.runJobs("ablation-queue", benchmarks, func(i int, name string, js *JobStat) error {
		p, err := r.jobProfile("ablation-queue", name)
		if err != nil {
			return err
		}
		backends := make([]engine.Backend, len(depths))
		for k, d := range depths {
			cfg := platch.DefaultConfig()
			cfg.QueueDepth = d
			backends[k] = platch.NewBackend(cfg)
		}
		out, err := engine.RunSweep(context.Background(), p, backends, r.ablationOptions("ablation-queue"))
		if err != nil {
			return err
		}
		row := []any{name}
		for _, o := range out {
			res := o.(platch.Result)
			js.Events += res.Events
			row = append(row, res.QueueOverheadSimple)
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
