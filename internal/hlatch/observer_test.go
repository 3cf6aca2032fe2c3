package hlatch

import (
	"testing"

	"latch/internal/pool"
	"latch/internal/telemetry"
	"latch/internal/workload"
)

func shortObsCfg(obs telemetry.Observer) Config {
	cfg := DefaultConfig()
	cfg.Events = 200_000
	cfg.Observer = obs
	return cfg
}

// runSPEC runs every SPEC benchmark under cfg on a pool of four workers,
// the way the experiment harness fans a pass out, and returns the results
// in suite order.
func runSPEC(t *testing.T, cfg Config) []Result {
	t.Helper()
	names := workload.BySuite(workload.SuiteSPEC)
	rs, err := pool.Map(4, len(names), func(i int) (Result, error) {
		return Run(workload.MustGet(names[i]), cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestObserverMirrorsResult(t *testing.T) {
	mx := telemetry.NewMetrics()
	r, err := Run(workload.MustGet("gcc"), shortObsCfg(mx))
	if err != nil {
		t.Fatal(err)
	}
	s := mx.Snapshot()
	if s.CoarseChecks != r.Checks {
		t.Errorf("CoarseChecks = %d, result.Checks = %d", s.CoarseChecks, r.Checks)
	}
	if s.ResolvedTLB != r.Latch.ResolvedTLB || s.ResolvedCTC != r.Latch.ResolvedCTC ||
		s.ResolvedPrecise != r.Latch.ResolvedPrecise {
		t.Errorf("resolve levels diverge: snapshot %d/%d/%d, stats %d/%d/%d",
			s.ResolvedTLB, s.ResolvedCTC, s.ResolvedPrecise,
			r.Latch.ResolvedTLB, r.Latch.ResolvedCTC, r.Latch.ResolvedPrecise)
	}
	if s.FalsePositives != r.Latch.FalsePositives {
		t.Errorf("FalsePositives = %d, stats %d", s.FalsePositives, r.Latch.FalsePositives)
	}
}

// TestSharedObserverAcrossSuite attaches ONE Metrics registry to every
// concurrently running module of a parallel suite run — the observability
// layer's concurrency contract (exercised under -race by `make race`). The
// aggregated counters must equal the sum of the per-benchmark results, and
// the observed run must produce results identical to an unobserved one.
func TestSharedObserverAcrossSuite(t *testing.T) {
	plain := runSPEC(t, shortObsCfg(nil))
	mx := telemetry.NewMetrics()
	observed := runSPEC(t, shortObsCfg(mx))

	if len(plain) != len(observed) {
		t.Fatalf("result count: %d vs %d", len(plain), len(observed))
	}
	for i := range plain {
		if plain[i] != observed[i] {
			t.Errorf("%s: observer changed results", plain[i].Benchmark)
		}
	}

	var wantChecks, wantFP uint64
	for _, r := range observed {
		wantChecks += r.Latch.Checks
		wantFP += r.Latch.FalsePositives
	}
	s := mx.Snapshot()
	if s.CoarseChecks != wantChecks {
		t.Errorf("shared CoarseChecks = %d, sum of results = %d", s.CoarseChecks, wantChecks)
	}
	if s.FalsePositives != wantFP {
		t.Errorf("shared FalsePositives = %d, sum of results = %d", s.FalsePositives, wantFP)
	}
	if s.ResolvedTLB+s.ResolvedCTC+s.ResolvedPrecise != wantChecks {
		t.Errorf("resolve levels %d+%d+%d do not partition %d checks",
			s.ResolvedTLB, s.ResolvedCTC, s.ResolvedPrecise, wantChecks)
	}
}
