package platch

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"latch/internal/dift"
	"latch/internal/engine"
	"latch/internal/isa"
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
	// The monitor serves one entry in 1 + LBA's reported overhead cycles:
	// exactly the 3.38 the co-simulation table's title names.
	if p := newParallel(t, nil); p.service != 3.38 {
		t.Fatalf("service = %v cycles/entry, want 3.38", p.service)
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

// TestParallelBaselineShipsEverything: unfiltered, every instruction enters
// the log, the queue saturates, and the monitored core runs at the monitor's
// service rate. Stalls and drains are charged at the exact 3.38 cycles per
// entry, so the overhead is LBA's 2.38 and agrees with the queue simulation
// of the same instruction count.
func TestParallelBaselineShipsEverything(t *testing.T) {
	p := newParallel(t, func(c *ParallelConfig) { c.Filtered = false })
	if _, err := p.Run(context.Background(), `
		li   r1, 20000
	loop:
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`, 100_000); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Enqueued != st.Instructions {
		t.Fatalf("baseline enqueued %d of %d", st.Enqueued, st.Instructions)
	}
	if got := st.Overhead(); math.Abs(got-simpleLBAOverhead) >= 0.01 {
		t.Fatalf("baseline overhead = %v, want within 0.01 of %v", got, simpleLBAOverhead)
	}
	want, _ := BaselineQueueOverhead(st.Instructions, DefaultConfig())
	if got := st.Overhead(); math.Abs(got-want) >= 1e-3 {
		t.Fatalf("baseline overhead = %v, queue simulation of %d instructions %v", got, st.Instructions, want)
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
// the violation is still reported, one instruction late, naming the hijack
// target the callr took.
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
			vs[0].Violation.Addr != 0x1000 || vs[0].IssuedAt != 12 || vs[0].DetectedAt != 13 {
			t.Fatalf("budget %d (%v): violations %+v, want one control-flow violation to 0x1000 issued at 12, detected at 13",
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
	if res, err := par.Run(context.Background(), src, 100_000); err != nil || res.Violation == nil || res.Violation.Kind != dift.ViolationLeak {
		t.Fatalf("leak not surfaced at the output sync point: violation %v, err %v", res.Violation, err)
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

// TestParallelPendingFIFOCatchesHijack: a function pointer the attacker
// controls is stored to clean memory while the log is backed up, loaded
// back, and called through. When the load commits, the monitor has not yet
// replayed the store, so the coarse state still reads the destination clean;
// only the pending-update FIFO (§5.2) flags the load, which taints the
// loaded register in the TRF and ships the load and the call to the
// monitor. Without it, neither reaches the monitor and the hijack goes
// unseen.
func TestParallelPendingFIFOCatchesHijack(t *testing.T) {
	src := `
_start:
	li   r1, 0xC000
	movi r2, 4
	sys  2              ; 4 attacker bytes into 0xC000
	li   r5, 0xC000
	ldw  r6, [r5]
` + strings.Repeat("\tadd  r7, r6, r0     ; tainted work backs the log up\n", 40) + `
	li   r8, 0xD000
	stw  r6, [r8]       ; clean destination, update still in the log
	ldw  r9, [r8]
	callr r9
	movi r1, 0
	sys  1
`
	p := newParallel(t, nil)
	p.Machine.Env.FileData = []byte{0x00, 0x10, 0x00, 0x00}
	_, runErr := p.Run(context.Background(), src, 1_000)
	var f vm.Fault
	if !errors.As(runErr, &f) {
		t.Fatalf("err = %v, want the fault at the hijack target", runErr)
	}
	if st := p.Stats(); st.PendingExtra < 1 {
		t.Fatalf("pending-update FIFO forced %d enqueues, want at least 1", st.PendingExtra)
	}
	vs := p.Violations()
	if len(vs) != 1 || vs[0].Violation.Kind != dift.ViolationControlFlow || vs[0].Violation.Addr != 0x1000 {
		t.Fatalf("violations %+v, want one control-flow violation to 0x1000", vs)
	}
}

// TestParallelStrfReachesMonitorInLogOrder: strf taints r1 after the movi
// and li that wrote it, so the jr through r1 is a control-flow violation on
// the reference stack. The monitored core's TRF takes the mask at once, and
// the monitor applies it when it reaches the strf's log entry, after the
// earlier entries; had it been applied to the lagging monitor at once, the
// unfiltered baseline's replay of the li would clear it again. Both modes
// report the one violation, deferred, at the target the jr took.
func TestParallelStrfReachesMonitorInLogOrder(t *testing.T) {
	const src = `
	movi r2, 2          ; strf mask: r1
	li   r1, 0x1000
	strf r2
	jr   r1
`
	ref, err := engine.NewReference(policy.Default())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.RunProgram(context.Background(), prog, 100)
	if err != nil || res.Violation == nil {
		t.Fatalf("reference: err = %v, want a control-flow violation at pc 0xc to 0x1000", err)
	}
	v := *res.Violation
	if v.Kind != dift.ViolationControlFlow || v.PC != 0xc || v.Addr != 0x1000 {
		t.Fatalf("reference: violation %v, want a control-flow violation at pc 0xc to 0x1000", v)
	}
	for _, filtered := range []bool{true, false} {
		p := newParallel(t, func(c *ParallelConfig) { c.Filtered = filtered })
		_, runErr := p.Run(context.Background(), src, 100)
		var f vm.Fault
		if !errors.As(runErr, &f) {
			t.Fatalf("filtered=%v: err = %v, want the fault at the jump target", filtered, runErr)
		}
		vs := p.Violations()
		if len(vs) != 1 || vs[0].Violation != v || vs[0].Lag() == 0 {
			t.Fatalf("filtered=%v: violations %+v, want one deferred %+v", filtered, vs, v)
		}
	}
}

// TestParallelTRFUpdate pins the monitored core's single-bit register taint
// rules: a load adopts the coarse verdict, move and ALU results are tainted
// when a register they read is (xor-with-self excepted), and every other
// register write is clean.
func TestParallelTRFUpdate(t *testing.T) {
	const lr = 1 << isa.RegLR
	cases := []struct {
		in          isa.Instr
		trf         uint16
		memPositive bool
		want        uint16
	}{
		{isa.Instr{Op: isa.LDW, Rd: 3, Rs1: 1}, 1 << 1, true, 1<<1 | 1<<3},
		{isa.Instr{Op: isa.LDB, Rd: 3, Rs1: 1}, 1<<1 | 1<<3, false, 1 << 1},
		{isa.Instr{Op: isa.MOV, Rd: 2, Rs1: 1}, 1 << 1, false, 1<<1 | 1<<2},
		{isa.Instr{Op: isa.MOV, Rd: 2, Rs1: 1}, 1 << 2, false, 0},
		{isa.Instr{Op: isa.ADD, Rd: 3, Rs1: 1, Rs2: 2}, 1 << 2, false, 1<<2 | 1<<3},
		{isa.Instr{Op: isa.XOR, Rd: 3, Rs1: 1, Rs2: 2}, 1 << 1, false, 1<<1 | 1<<3},
		{isa.Instr{Op: isa.XOR, Rd: 3, Rs1: 1, Rs2: 1}, 1<<1 | 1<<3, false, 1 << 1},
		{isa.Instr{Op: isa.ADDI, Rd: 4, Rs1: 1}, 1 << 1, false, 1<<1 | 1<<4},
		{isa.Instr{Op: isa.MOVI, Rd: 1}, 1 << 1, true, 0},
		{isa.Instr{Op: isa.CALL}, lr | 1<<1, false, 1 << 1},
		{isa.Instr{Op: isa.CALLR, Rs1: 1}, lr | 1<<1, false, 1 << 1},
		{isa.Instr{Op: isa.STW, Rd: 1, Rs1: 2}, 1<<1 | 1<<2, true, 1<<1 | 1<<2},
		{isa.Instr{Op: isa.BEQ, Rd: 1, Rs1: 2}, 1 << 1, false, 1 << 1},
	}
	p := newParallel(t, nil)
	for _, c := range cases {
		p.trf = c.trf
		p.updateTRF(c.in, c.memPositive)
		if p.trf != c.want {
			t.Errorf("%v over TRF %016b (memory positive %v): TRF %016b, want %016b",
				c.in, c.trf, c.memPositive, p.trf, c.want)
		}
	}
}
