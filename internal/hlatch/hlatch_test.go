package hlatch

import (
	"testing"

	"latch/internal/workload"
)

func shortCfg() Config {
	cfg := DefaultConfig()
	cfg.Events = 300_000
	return cfg
}

func TestRunBasicInvariants(t *testing.T) {
	r, err := Run(workload.MustGet("gcc"), shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Events != 300_000 {
		t.Fatalf("events = %d", r.Events)
	}
	if r.Checks == 0 || r.Checks > r.Events {
		t.Fatalf("checks = %d", r.Checks)
	}
	// Shares sum to 1.
	if sum := r.ShareTLB + r.ShareCTC + r.SharePrecise; sum < 0.999 || sum > 1.001 {
		t.Fatalf("level shares sum to %v", sum)
	}
	// Baseline sees every check.
	if r.Latch.BaselineTCacheAccesses != r.Checks {
		t.Fatalf("baseline accesses %d != checks %d", r.Latch.BaselineTCacheAccesses, r.Checks)
	}
	// Combined = CTC + t-cache.
	if r.CombinedMissPct != r.CTCMissPct+r.TCacheMissPct {
		t.Fatal("combined mismatch")
	}
}

func TestFilteringBeatsBaseline(t *testing.T) {
	// The core claim of H-LATCH: the filtered stack's combined miss rate is
	// far below the unfiltered cache's, for clean and moderately tainted
	// benchmarks alike.
	for _, name := range []string{"bzip2", "gcc", "apache"} {
		r, err := Run(workload.MustGet(name), shortCfg())
		if err != nil {
			t.Fatal(err)
		}
		if r.CombinedMissPct >= r.BaselineMissPct {
			t.Errorf("%s: combined %.4f%% >= baseline %.4f%%", name, r.CombinedMissPct, r.BaselineMissPct)
		}
		if r.AvoidedPct < 50 {
			t.Errorf("%s: avoided only %.1f%% of misses", name, r.AvoidedPct)
		}
	}
}

func TestTLBDeflectsMostAccessesForCleanBenchmarks(t *testing.T) {
	r, err := Run(workload.MustGet("bzip2"), shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.ShareTLB < 0.9 {
		t.Errorf("bzip2 TLB share = %.3f, want > 0.9", r.ShareTLB)
	}
	if r.CombinedMissPct > 0.2 {
		t.Errorf("bzip2 combined miss = %.4f%%", r.CombinedMissPct)
	}
}

func TestAstarIsTheOutlier(t *testing.T) {
	// astar's poor spatial locality must stress the stack far more than the
	// well-behaved benchmarks (Table 6's one > 1% row).
	astar, err := Run(workload.MustGet("astar"), shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	gcc, err := Run(workload.MustGet("gcc"), shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if astar.CombinedMissPct < 10*gcc.CombinedMissPct {
		t.Errorf("astar %.4f%% not clearly worse than gcc %.4f%%",
			astar.CombinedMissPct, gcc.CombinedMissPct)
	}
	if astar.SharePrecise < 0.05 {
		t.Errorf("astar precise share = %.3f, want substantial", astar.SharePrecise)
	}
}

func TestBaselineMissTracksProfileCalibration(t *testing.T) {
	// HotFraction was derived from the paper's baseline miss rates; check
	// the loop closes: baseline miss% ~ (1-HotFraction)*100 within a
	// reasonable band.
	for _, name := range []string{"bzip2", "mcf", "cactusADM"} {
		p := workload.MustGet(name)
		r, err := Run(p, shortCfg())
		if err != nil {
			t.Fatal(err)
		}
		want := (1 - p.HotFraction) * 100
		if r.BaselineMissPct < want*0.6 || r.BaselineMissPct > want*1.4 {
			t.Errorf("%s: baseline %.2f%%, calibration target %.2f%%", name, r.BaselineMissPct, want)
		}
	}
}

func BenchmarkHLatchGCC(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Events = uint64(b.N)
	if _, err := Run(workload.MustGet("gcc"), cfg); err != nil {
		b.Fatal(err)
	}
}
