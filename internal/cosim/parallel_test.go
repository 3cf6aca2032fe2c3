package cosim

import (
	"context"
	"errors"
	"testing"

	"latch/internal/dift"
	"latch/internal/policy"
	"latch/internal/vm"
	"latch/internal/workload"
)

func newParallel(t *testing.T, mutate func(*ParallelConfig)) *Parallel {
	t.Helper()
	cfg := DefaultParallelConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := NewParallel(cfg, policy.Default())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParallelConfigValidation(t *testing.T) {
	cfg := DefaultParallelConfig()
	cfg.QueueDepth = 0
	if _, err := NewParallel(cfg, policy.Default()); err == nil {
		t.Fatal("zero queue depth accepted")
	}
	cfg = DefaultParallelConfig()
	cfg.ServiceCycles = 0.5
	if _, err := NewParallel(cfg, policy.Default()); err == nil {
		t.Fatal("sub-cycle service accepted")
	}
}

func TestParallelCleanProgramNoOverhead(t *testing.T) {
	p := newParallel(t, nil)
	if _, err := p.Run(context.Background(), `
		movi r1, 200
	loop:
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`, 10_000); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Enqueued != 0 {
		t.Fatalf("clean program enqueued %d entries", st.Enqueued)
	}
	if st.Overhead() != 0 {
		t.Fatalf("overhead = %v", st.Overhead())
	}
}

func TestParallelBaselineShipsEverything(t *testing.T) {
	p := newParallel(t, func(c *ParallelConfig) { c.Filtered = false })
	if _, err := p.Run(context.Background(), `
		movi r1, 200
	loop:
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`, 10_000); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Enqueued != st.Instructions {
		t.Fatalf("baseline enqueued %d of %d", st.Enqueued, st.Instructions)
	}
	// The queue saturates and the monitored core runs at the monitor's
	// service rate: overhead approaches ServiceCycles-1.
	if st.Overhead() < 1.5 {
		t.Fatalf("baseline overhead = %v, want near 2.38", st.Overhead())
	}
}

func TestParallelFilteredBeatsBaseline(t *testing.T) {
	run := func(filtered bool) ParallelStats {
		p := newParallel(t, func(c *ParallelConfig) { c.Filtered = filtered })
		p.Machine.Env.FileData = []byte("abcdefgh")
		src, err := workload.ProgramSource("copyloop")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(context.Background(), src, 100_000); err != nil {
			t.Fatal(err)
		}
		return p.Stats()
	}
	filtered := run(true)
	baseline := run(false)
	if filtered.Enqueued >= baseline.Enqueued {
		t.Fatalf("filtering did not reduce the log: %d vs %d", filtered.Enqueued, baseline.Enqueued)
	}
	if filtered.Overhead() >= baseline.Overhead() {
		t.Fatalf("filtered overhead %v >= baseline %v", filtered.Overhead(), baseline.Overhead())
	}
}

// TestParallelDeferredDetection: the monitor detects the control-flow
// hijack after the jump executed, with a lag — the log-based monitoring
// semantics. The hijacked overflow commits its tainted callr as instruction
// 12 and then faults before the lagging monitor has reached it: at a 13-step
// budget, or at the fetch from never-mapped 0x1000 with a larger one. A fault
// is a sync point like exit, so Run drains the log before returning it and
// the violation is still reported, one instruction late.
func TestParallelDeferredDetection(t *testing.T) {
	src, err := workload.ProgramSource("overflow")
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []uint64{13, 14, 2_000} {
		p := newParallel(t, nil)
		p.Machine.Env.FileData = append(make([]byte, 16), 0x00, 0x10, 0x00, 0x00)
		_, runErr := p.Run(context.Background(), src, budget)
		var f vm.Fault
		if !errors.As(runErr, &f) {
			t.Fatalf("budget %d: err = %v, want a fault", budget, runErr)
		}
		vs := p.Violations()
		if len(vs) != 1 || vs[0].Violation.Kind != dift.ViolationControlFlow ||
			vs[0].IssuedAt != 12 || vs[0].DetectedAt != 13 {
			t.Fatalf("budget %d (%v): violations %+v, want one control-flow violation issued at 12, detected at 13",
				budget, runErr, vs)
		}
	}
}

func TestParallelOutputSyncPoint(t *testing.T) {
	// Tainted data flowing to an output syscall must surface the pending
	// violation at the sync point, not after.
	pol := policy.Default()
	pol.CheckLeak = true
	cfg := DefaultParallelConfig()
	par, err := NewParallel(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	par.Machine.Env.FileData = []byte("secret")
	src, err := workload.ProgramSource("copyloop")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := par.Run(context.Background(), src, 100_000); err == nil {
		t.Fatal("leak not surfaced at the output sync point")
	}
}

func TestParallelSubstitutionFiltersWell(t *testing.T) {
	p := newParallel(t, nil)
	p.Machine.Env.FileData = []byte("abcdefghijklmnop")
	src, err := workload.ProgramSource("substitution")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), src, 100_000); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	frac := float64(st.Enqueued) / float64(st.Instructions)
	if frac > 0.25 {
		t.Fatalf("substitution enqueued %.1f%% of instructions", 100*frac)
	}
	if st.Overhead() > 0.6 {
		t.Fatalf("substitution overhead = %v", st.Overhead())
	}
	// The monitor's shadow must agree with ground truth once drained:
	// output clean, input tainted.
	if p.Shadow.RangeTainted(0x9000, 16) {
		t.Fatal("monitor state wrong: output tainted")
	}
	if !p.Shadow.RangeTainted(0x8000, 16) {
		t.Fatal("monitor state wrong: input clean")
	}
}

func TestPendingRing(t *testing.T) {
	r := newPendingRing(2)
	r.push(1)
	r.push(2)
	r.push(3) // evicts 1
	if r.pending(1) || !r.pending(2) || !r.pending(3) {
		t.Fatal("ring membership wrong")
	}
	if newPendingRing(0) != nil {
		t.Fatal("zero capacity should disable")
	}
	empty := newPendingRing(1)
	empty.pop() // popping empty is a no-op
	if empty.count != 0 {
		t.Fatal("pop on empty corrupted state")
	}
}
