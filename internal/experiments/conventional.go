package experiments

import (
	"context"

	"latch/internal/cache"
	"latch/internal/engine"
	"latch/internal/hlatch"
	"latch/internal/latch"
	"latch/internal/stats"
	"latch/internal/workload"
)

// Conventional reproduces the introduction's headline H-LATCH claim: "a
// mean taint cache miss rate of less than 0.02% despite a taint cache
// capacity of less than 8% the size of a conventional implementation
// ([54])". It compares the H-LATCH stack (128 B filtered t-cache + 64 B CTC
// + TLB bits, 320 B total) against a conventional FlexiTaint-style 4 KiB
// unfiltered taint cache on the same reference streams: the 4 KiB run of a
// benchmark derives its profile from pass hlatch, as the memoized H-LATCH
// column does, and runs under the same policy, so both columns replay one
// stream.
func (r *Runner) Conventional() (*stats.Table, error) {
	// Conventional configuration: the same line geometry scaled to 4 KiB
	// (256 sets x 4 ways x 4 B), fed every check, no filtering.
	conventional := hlatch.DefaultConfig()
	conventional.Latch.TCache = cache.Config{Name: "tcache-4k", Sets: 256, Ways: 4, LineSize: 4}
	conventional.Latch.BaselineTCache = true
	opts := engine.RunOptions{Events: r.opts.Events, Observer: r.passObserver("conventional"), Policy: r.opts.Policy}

	t := stats.NewTable("Conventional 4 KiB taint cache vs H-LATCH 320 B stack (miss % per memory check)",
		"benchmark", "conventional 4KiB", "H-LATCH combined", "capacity ratio")

	capacityRatio := capacityString(hlatch.DefaultConfig().Latch)

	var hlRows []hlatch.Result
	for _, suite := range []workload.Suite{workload.SuiteSPEC, workload.SuiteNetwork} {
		hlRes, err := r.HLatch(suite)
		if err != nil {
			return nil, err
		}
		hlRows = append(hlRows, hlRes...)
	}
	names := make([]string, len(hlRows))
	for i, hr := range hlRows {
		names[i] = hr.Benchmark
	}
	// The conventional cache is the unfiltered baseline of a run with
	// 4 KiB geometry; one pool job per benchmark.
	convMiss := make([]float64, len(hlRows))
	err := r.runJobs("conventional", names, func(i int, name string, js *JobStat) error {
		p, err := r.jobProfile("hlatch", name)
		if err != nil {
			return err
		}
		out, err := engine.RunProfile(context.Background(), hlatch.NewBackend(conventional), p, opts)
		if err != nil {
			return err
		}
		conv := out.(hlatch.Result)
		js.Events, js.Checks = conv.Events, conv.Checks
		convMiss[i] = conv.BaselineMissPct
		return nil
	})
	if err != nil {
		return nil, err
	}
	var convSum, hlSum float64
	for i, hr := range hlRows {
		t.AddRowf(hr.Benchmark, convMiss[i], hr.CombinedMissPct, capacityRatio)
		convSum += convMiss[i]
		hlSum += hr.CombinedMissPct
	}
	n := len(hlRows)
	t.AddRowf("mean", convSum/float64(n), hlSum/float64(n), capacityRatio)
	t.AddRow("paper claim", "(conventional reference)", "< 0.02 mean (excl. astar/sphinx)", "< 8%")
	return t, nil
}

// capacityString renders the H-LATCH taint-state capacity as a fraction of
// the conventional 4 KiB cache.
func capacityString(cfg latch.Config) string {
	bytes := cfg.TCache.CapacityBytes() + cfg.CTCPayloadBytes() +
		cfg.TLBEntries*cfg.PageDomains()/8
	return stats.FormatFloat(100*float64(bytes)/4096) + "% of 4KiB"
}
