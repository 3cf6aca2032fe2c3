package experiments

import (
	"fmt"

	"latch/internal/engine"
	"latch/internal/hlatch"
	"latch/internal/latch"
	"latch/internal/platch"
	"latch/internal/slatch"
	"latch/internal/stats"
	"latch/internal/trace"
	"latch/internal/workload"
)

// Ablation studies for the design choices DESIGN.md §5 calls out. These go
// beyond the paper's published evaluation: they vary one parameter of the
// LATCH design at a time and measure its effect on a representative
// benchmark mix (a well-behaved program, a fragmented one, and a server).
//
// Each benchmark's full parameter sweep is one pool job: the sweep shares
// nothing across benchmarks, and the per-job derived seed keeps the row
// independent of scheduling.

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
		row := []any{name}
		for _, ds := range Fig6Granularities {
			cfg := hlatch.DefaultConfig()
			cfg.Events = r.opts.Events / 4
			cfg.Latch.DomainSize = ds
			cfg.Observer = r.passObserver("ablation-domain")
			res, err := hlatch.Run(p, cfg)
			if err != nil {
				return err
			}
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
		row := []any{name}
		for _, to := range timeouts {
			cfg := slatch.DefaultConfig()
			cfg.Events = r.opts.Events / 4
			cfg.Costs.TimeoutInstrs = to
			cfg.Observer = r.passObserver("ablation-timeout")
			res, err := slatch.Run(p, cfg)
			if err != nil {
				return err
			}
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
		row := []any{name}
		for _, n := range sizes {
			cfg := hlatch.DefaultConfig()
			cfg.Events = r.opts.Events / 4
			cfg.Latch.CTCEntries = n
			cfg.Observer = r.passObserver("ablation-ctc")
			res, err := hlatch.Run(p, cfg)
			if err != nil {
				return err
			}
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

		type outcome struct {
			marked, truth int
		}
		// The three policies run on one session, recycled between them.
		cfg := latch.DefaultConfig()
		cfg.BaselineTCache = false
		sess, err := engine.NewSession(cfg)
		if err != nil {
			return err
		}
		run := func(clear latch.ClearPolicy) (outcome, error) {
			cfg.Clear = clear
			if err := sess.Recycle(cfg); err != nil {
				return outcome{}, err
			}
			sh, m := sess.Shadow, sess.Module
			m.SetObserver(r.passObserver("ablation-clear"))
			g, err := workload.NewSampledGeneratorOn(p, sh, r.sampling())
			if err != nil {
				return outcome{}, err
			}
			var n uint64
			g.Run(r.opts.Events/4, trace.SinkFunc(func(ev trace.Event) {
				n++
				if clear == latch.LazyClear && n%10_000 == 0 {
					// Model the periodic timeout returns that trigger the
					// resident clear-bit scan.
					m.ScanResidentClears()
				}
			}))
			js.Events += n
			if clear == latch.LazyClear {
				m.ScanResidentClears()
			}
			// Ground truth: count domains that still hold taint.
			truth := 0
			for _, pn := range sh.EverTaintedPageNumbers() {
				base := pn << 12
				for off := uint32(0); off < 4096; off += cfg.DomainSize {
					if sh.DomainTainted(sh.DomainIndex(base + off)) {
						truth++
					}
				}
			}
			return outcome{marked: m.CTT().TaintedDomains(), truth: truth}, nil
		}

		eager, err := run(latch.EagerClear)
		if err != nil {
			return err
		}
		lazy, err := run(latch.LazyClear)
		if err != nil {
			return err
		}
		none, err := run(latch.NoClear)
		if err != nil {
			return err
		}
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
		row := []any{name}
		for _, d := range depths {
			cfg := platch.DefaultConfig()
			cfg.QueueDepth = d
			cfg.Events = r.opts.Events / 4
			cfg.Observer = r.passObserver("ablation-queue")
			res, err := platch.Run(p, cfg)
			if err != nil {
				return err
			}
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
