package cosim

import (
	"context"
	"testing"

	"latch/internal/dift"
	"latch/internal/engine"
	"latch/internal/isa"
	"latch/internal/platch" // registers platch and cplatch
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/vm"
	"latch/internal/workload"

	_ "latch/internal/hlatch" // registers the other backends NewMonitor resolves
	_ "latch/internal/slatch"
)

// newSLatch builds the S-LATCH co-simulation: a Monitor around the
// registered slatch backend in its paper-default configuration.
func newSLatch(t testing.TB) *Monitor {
	t.Helper()
	m, err := NewMonitor("slatch", policy.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runSLatch runs src to completion on a fresh S-LATCH co-simulation and
// returns the machine with its session counters.
func runSLatch(t *testing.T, src string, env func(*vm.Env)) (*Monitor, engine.Snapshot) {
	t.Helper()
	m := newSLatch(t)
	if env != nil {
		env(m.Machine.Env)
	}
	if _, err := m.Run(context.Background(), src, 100_000); err != nil {
		t.Fatal(err)
	}
	return m, m.Session.Snapshot()
}

func TestCleanProgramStaysInHardware(t *testing.T) {
	_, st := runSLatch(t, `
		movi r1, 100
		movi r2, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`, nil)
	if st.SWInstrs != 0 || st.Switches != 0 {
		t.Fatalf("clean program entered software mode: %+v", st)
	}
	if st.Cycles.Overhead() > 0.01 {
		t.Fatalf("clean overhead = %v", st.Cycles.Overhead())
	}
}

// TestCoSimulatedMachinesSeeEveryCommit: a co-simulated machine's tracker
// must see every committed instruction, so the VM may never run one in its
// fast loop, which settles a clean segment with one CommitClean and no
// Commit. A Monitor over every registered backend, and a Parallel, run a
// clean loop that an engine-driven machine runs in the fast loop: neither
// enters it, and each counts every instruction the machine retired.
func TestCoSimulatedMachinesSeeEveryCommit(t *testing.T) {
	const src = `
		movi r1, 100
		movi r2, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`
	prog := isa.MustAssemble(src)
	names := engine.Names()
	if len(names) < 4 {
		t.Fatalf("registry has %v, want every backend", names)
	}
	for _, name := range names {
		m, err := NewMonitor(name, policy.Default(), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := m.RunProgram(context.Background(), prog, 10_000)
		res := m.Result()
		if runErr != nil {
			t.Fatalf("%s: %v", name, runErr)
		}
		if entries, _, steps := m.Machine.FastLoopStats(); entries != 0 || steps != 0 {
			t.Errorf("%s: the machine ran %d instructions in %d fast-loop entries", name, steps, entries)
		}
		if got, want := res.EventCount(), m.Machine.Instret(); got != want || want != 303 {
			t.Errorf("%s: the backend saw %d of %d instructions, want 303", name, got, want)
		}
	}
	p, err := platch.NewParallel(platch.DefaultParallelConfig(), policy.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), src, 10_000); err != nil {
		t.Fatal(err)
	}
	if entries, _, steps := p.Machine.FastLoopStats(); entries != 0 || steps != 0 {
		t.Errorf("parallel: the machine ran %d instructions in %d fast-loop entries", steps, entries)
	}
	if got, want := p.Stats().Instructions, p.Machine.Instret(); got != want || want != 303 {
		t.Errorf("parallel: the monitored core committed %d of %d instructions, want 303", got, want)
	}
}

func TestTaintedInputTriggersSwitchAndTimeout(t *testing.T) {
	// Read tainted data, touch it once, then run a clean loop longer than
	// the 1000-instruction timeout: the system must switch to software on
	// the tainted load and back to hardware after the timeout.
	_, st := runSLatch(t, `
		li   r1, 0x8000
		movi r2, 4
		sys  2
		li   r3, 0x8000
		ldw  r4, [r3]     ; tainted load -> trap -> software mode
		movi r4, 0        ; clears the register again
		movi r5, 600
	loop:
		addi r5, r5, -1
		bne  r5, r0, loop ; long clean epoch -> timeout -> hardware mode
		halt
	`, func(e *vm.Env) { e.FileData = []byte{1, 2, 3, 4} })
	if st.Switches != 1 {
		t.Fatalf("switches = %d, want 1", st.Switches)
	}
	if st.Returns != 1 {
		t.Fatalf("returns = %d, want 1", st.Returns)
	}
	if st.Mode != engine.ModeHardware {
		t.Fatalf("final mode = %v", st.Mode)
	}
	if st.SWInstrs == 0 || st.HWInstrs == 0 {
		t.Fatalf("mode split: %+v", st)
	}
	if st.Cycles.Overhead() <= 0 {
		t.Fatal("no overhead recorded")
	}
}

func TestExploitCaughtInBothModes(t *testing.T) {
	// The overflow attack must be caught by the co-simulated system exactly
	// as by pure DIFT: no false negatives through the acceleration layer.
	src, err := workload.ProgramSource("overflow")
	if err != nil {
		t.Fatal(err)
	}
	s := newSLatch(t)
	s.Machine.Env.FileData = append(make([]byte, 16), 0x00, 0x10, 0x00, 0x00)
	res, err := s.Run(context.Background(), src, 100_000)
	if err != nil || res.Violation == nil || res.Violation.Kind != dift.ViolationControlFlow {
		t.Fatalf("violation = %v, err = %v, want a control-flow violation", res.Violation, err)
	}
	// The trap (and switch) must have occurred before the violation: the
	// tainted pointer load put the system in software mode.
	if s.Session.Switches == 0 {
		t.Fatal("attack did not transfer to software mode first")
	}
}

func TestBenignOverflowRunsHardwareFalsePositiveFree(t *testing.T) {
	src, err := workload.ProgramSource("overflow")
	if err != nil {
		t.Fatal(err)
	}
	s, st := runSLatch(t, src, func(e *vm.Env) { e.FileData = []byte("ok") })
	// The program never reads the message bytes themselves; the only taint
	// interaction is the function-pointer load from the same 64-byte domain
	// as the tainted buffer — a textbook coarse false positive (Figure 1,
	// case B) that the handler dismisses without a mode switch.
	if st.FalseTraps == 0 {
		t.Fatalf("expected a dismissed same-domain trap: %+v", st)
	}
	if st.Switches != 0 {
		t.Fatalf("false positive escalated to a mode switch: %+v", st)
	}
	if s.Machine.Regs[3] != 42 {
		t.Fatal("handler did not run")
	}
}

func TestFalsePositiveDismissal(t *testing.T) {
	// Taint one byte, then access a *different* byte in the same 64-byte
	// domain from hardware mode: the coarse check fires, the precise filter
	// dismisses it, and execution never enters software mode.
	s := newSLatch(t)
	s.Engine.TaintMemory(0x8000, 1, shadow.MustLabel(0))
	if _, err := s.Run(context.Background(), `
		li   r3, 0x8020   ; same domain as 0x8000, clean byte
		ldw  r4, [r3]
		halt
	`, 1000); err != nil {
		t.Fatal(err)
	}
	st := s.Session.Snapshot()
	if st.Traps == 0 || st.FalseTraps == 0 {
		t.Fatalf("expected a dismissed trap: %+v", st)
	}
	if st.Switches != 0 {
		t.Fatal("false positive caused a mode switch")
	}
}

func TestTRFPropagationInHardware(t *testing.T) {
	// strf-set taint on a register is a register-operand positive in
	// hardware mode: its first use traps, the handler confirms it, and
	// execution moves to software mode without touching memory.
	s := newSLatch(t)
	s.Machine.Load(isa.MustAssemble(`
		movi r2, 0b10   ; mark r1 tainted
		strf r2
		mov  r3, r1     ; tainted move -> trap -> software
		halt
	`))
	if _, err := s.Machine.Run(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	st := s.Session.Snapshot()
	if st.Traps != 1 || st.FalseTraps != 0 || st.Switches != 1 {
		t.Fatalf("traps=%d false=%d switches=%d, want 1/0/1 (register-driven trap)",
			st.Traps, st.FalseTraps, st.Switches)
	}
	if st.Latch.Checks != 0 {
		t.Fatalf("register-only program made %d coarse memory checks", st.Latch.Checks)
	}
}

func TestStatsBreakdownConsistent(t *testing.T) {
	src, err := workload.ProgramSource("copyloop")
	if err != nil {
		t.Fatal(err)
	}
	_, st := runSLatch(t, src, func(e *vm.Env) { e.FileData = []byte("abcdefgh") })
	if st.HWInstrs+st.SWInstrs != st.Events {
		t.Fatalf("mode split does not sum: %+v", st)
	}
	sum := st.Cycles.Base + st.Cycles.Libdft + st.Cycles.Xfer + st.Cycles.FPCheck + st.Cycles.CTCMiss + st.Cycles.Scan
	if sum != st.Cycles.Total() {
		t.Fatal("cycle categories do not sum to total")
	}
	if st.FalseTraps > st.Traps {
		t.Fatal("more dismissals than traps")
	}
}

func TestSubstitutionMostlyHardware(t *testing.T) {
	// The substitution kernel touches taint only while reading input bytes;
	// table lookups and stores are clean, so the long table-build prologue
	// runs in hardware.
	src, err := workload.ProgramSource("substitution")
	if err != nil {
		t.Fatal(err)
	}
	_, st := runSLatch(t, src, func(e *vm.Env) { e.FileData = []byte{9, 8, 7} })
	// The 256-entry table build alone is >1500 hardware instructions.
	if st.HWInstrs < st.SWInstrs {
		t.Fatalf("expected hardware-dominated run: %+v", st)
	}
}

func TestTrackerInterfaceDelegation(t *testing.T) {
	if _, err := NewMonitor("no-such-backend", policy.Default(), nil); err == nil {
		t.Fatal("NewMonitor accepted an unregistered backend")
	}
	s := newSLatch(t)
	// Output with leak checking disabled passes.
	if err := s.Output(0, 0x100, 4); err != nil {
		t.Fatal(err)
	}
	if s.Accept() != 0 || s.Accept() != 1 {
		t.Fatal("accept ids wrong")
	}
	s.SetTaintByte(0x40, shadow.MustLabel(1))
	if !s.Session.Shadow.Get(0x40).Tainted() {
		t.Fatal("stnt delegation failed")
	}
	if ldb := (isa.Instr{Op: isa.LDB, Rd: 1}); !s.Touches(ldb, 0x40) || s.Touches(ldb, 0x80) {
		t.Fatal("Touches does not follow the precise engine")
	}
	s.SetRegTaintMask(0b100, shadow.MustLabel(0))
	if !s.Engine.RegTaint(2).Tainted() {
		t.Fatal("strf delegation failed")
	}
	var _ vm.Tracker = s
}

func BenchmarkSLatchCoSim(b *testing.B) {
	src, err := workload.ProgramSource("substitution")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := isa.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(2960, "instrs/op") // substitution's instruction count
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newSLatch(b)
		s.Machine.Env.FileData = []byte("benchmark input data here")
		if _, err := s.RunProgram(context.Background(), prog, 100_000); err != nil {
			b.Fatal(err)
		}
		if s.Machine.Instret() < 2000 {
			b.Fatal("program did not run")
		}
	}
}
