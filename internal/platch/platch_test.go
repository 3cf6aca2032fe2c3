package platch

import (
	"math"
	"testing"

	"latch/internal/workload"
)

func shortCfg() Config {
	cfg := DefaultConfig()
	cfg.Events = 400_000
	return cfg
}

func TestQueueSimSaturated(t *testing.T) {
	// Enqueueing everything at service cost s drives overhead to ~s-1.
	all := make([]bool, 100_000)
	for i := range all {
		all[i] = true
	}
	got := simulate(all, 1024, 3.38, nil)
	if math.Abs(got-2.38) > 0.1 {
		t.Fatalf("saturated overhead = %.3f, want ~2.38", got)
	}
}

func TestQueueSimEmpty(t *testing.T) {
	none := make([]bool, 100_000)
	if got := simulate(none, 1024, 3.38, nil); got != 0 {
		t.Fatalf("empty queue overhead = %v", got)
	}
	if got := simulate(nil, 16, 2, nil); got != 0 {
		t.Fatalf("nil stream overhead = %v", got)
	}
}

func TestZeroEventRunHasNoNaN(t *testing.T) {
	// A zero-length stream used to produce EnqueuedFraction = 0/0 = NaN,
	// which breaks Result comparability and poisons averaged columns.
	cfg := DefaultConfig()
	cfg.Events = 0
	res, err := Run(workload.MustGet("gcc"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.EnqueuedFraction) || res.EnqueuedFraction != 0 {
		t.Fatalf("EnqueuedFraction = %v, want 0", res.EnqueuedFraction)
	}
	for _, c := range res.Columns() {
		if f, ok := c.Value.(float64); ok && math.IsNaN(f) {
			t.Fatalf("column %s is NaN", c.Label)
		}
	}
}

func TestQueueSimSparse(t *testing.T) {
	// 1% enqueue rate with service 3.38: consumer keeps up, near-zero
	// overhead (only the tail drain).
	evs := make([]bool, 100_000)
	for i := 0; i < len(evs); i += 100 {
		evs[i] = true
	}
	if got := simulate(evs, 1024, 3.38, nil); got > 0.01 {
		t.Fatalf("sparse overhead = %.4f, want ~0", got)
	}
}

func TestQueueSimBursty(t *testing.T) {
	// A burst longer than the queue at slow service must stall: overhead
	// strictly positive but below the saturated bound.
	evs := make([]bool, 100_000)
	for i := 0; i < 20_000; i++ {
		evs[i] = true
	}
	got := simulate(evs, 256, 3.38, nil)
	if got <= 0 || got >= 2.38 {
		t.Fatalf("bursty overhead = %.4f", got)
	}
}

func TestRunInvariants(t *testing.T) {
	r, err := Run(workload.MustGet("apache"), shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Events != 400_000 {
		t.Fatalf("events = %d", r.Events)
	}
	if r.ActiveWindowFraction <= 0 || r.ActiveWindowFraction > 1 {
		t.Fatalf("active fraction = %v", r.ActiveWindowFraction)
	}
	if r.OverheadSimple <= r.OverheadOptimized {
		t.Fatal("simple should cost more than optimized")
	}
	// Filtering must beat the unfiltered baseline by a wide margin.
	baseline, _ := BaselineQueueOverhead(r.Events, shortCfg())
	if r.QueueOverheadSimple >= baseline {
		t.Fatalf("filtered %.3f >= baseline %.3f", r.QueueOverheadSimple, baseline)
	}
	// Baseline LBA reproduces its reported overhead.
	if math.Abs(baseline-2.38) > 0.15 {
		t.Fatalf("queue baseline = %.3f, want ~2.38", baseline)
	}
	if r.EnqueuedFraction <= 0 || r.EnqueuedFraction > 0.5 {
		t.Fatalf("enqueued fraction = %v", r.EnqueuedFraction)
	}
}

func TestCleanBenchmarkNearZero(t *testing.T) {
	r, err := Run(workload.MustGet("bzip2"), shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.OverheadSimple > 0.05 {
		t.Errorf("bzip2 P-LATCH overhead = %.4f, want ~0", r.OverheadSimple)
	}
}

func TestFragmentedCostsMore(t *testing.T) {
	apache, err := Run(workload.MustGet("apache"), shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	wget, err := Run(workload.MustGet("wget"), shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if apache.OverheadSimple <= wget.OverheadSimple {
		t.Errorf("apache %.3f should exceed wget %.3f", apache.OverheadSimple, wget.OverheadSimple)
	}
}

func BenchmarkPLatchApache(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Events = uint64(b.N)
	if _, err := Run(workload.MustGet("apache"), cfg); err != nil {
		b.Fatal(err)
	}
}
