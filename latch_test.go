package latch_test

import (
	"context"
	"errors"
	"testing"

	"latch"
)

func TestSystemRunsCleanProgram(t *testing.T) {
	sys, err := latch.New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), `
		movi r1, 7
		sys 1
	`, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 7 {
		t.Fatalf("exit code = %d", res.ExitCode)
	}
	if res.Steps == 0 {
		t.Fatal("RunResult.Steps not populated")
	}
	if res.Violation != nil {
		t.Fatalf("clean run reported violation %v", res.Violation)
	}
}

func TestSystemCatchesHijack(t *testing.T) {
	sys, err := latch.New()
	if err != nil {
		t.Fatal(err)
	}
	sys.Machine.Env.FileData = []byte{0x00, 0x20, 0x00, 0x00} // attacker-controlled address
	res, err := sys.Run(context.Background(), `
		li   r1, 0x3000
		movi r2, 4
		sys  2          ; read tainted input
		li   r3, 0x3000
		ldw  r4, [r3]
		jr   r4         ; jump to attacker-controlled target
		halt
	`, 1000)
	if err != nil {
		t.Fatalf("violation must be data, not an error: %v", err)
	}
	if res.Violation == nil || res.Violation.Kind != latch.ViolationControlFlow {
		t.Fatalf("violation = %v, want control-flow violation", res.Violation)
	}
}

func TestCoarseStateTracksEngine(t *testing.T) {
	sys, err := latch.New()
	if err != nil {
		t.Fatal(err)
	}
	sys.Machine.Env.FileData = []byte("secret")
	if _, err := sys.Run(context.Background(), `
		li   r1, 0x5000
		movi r2, 6
		sys  2
		halt
	`, 1000); err != nil {
		t.Fatal(err)
	}
	// The module's coarse check must flag the tainted buffer...
	res := sys.Module.CheckMem(0x5000, 4)
	if !res.CoarsePositive || !res.TrulyTainted {
		t.Fatalf("coarse state missed taint: %+v", res)
	}
	// ...and pass a far-away clean address at the TLB level.
	res = sys.Module.CheckMem(0x9000, 4)
	if res.CoarsePositive {
		t.Fatalf("false coarse positive: %+v", res)
	}
}

func TestAssembleErrorsSurface(t *testing.T) {
	sys, err := latch.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(context.Background(), "bogus", 10); err == nil {
		t.Fatal("assembler error not surfaced")
	}
}

func TestLabelAndTags(t *testing.T) {
	if latch.MustLabel(2) == latch.TagClean {
		t.Fatal("label is clean")
	}
}

func TestViolationSentinels(t *testing.T) {
	sys, err := latch.New()
	if err != nil {
		t.Fatal(err)
	}
	sys.Machine.Env.FileData = []byte{0x00, 0x20, 0x00, 0x00}
	res, err := sys.Run(context.Background(), `
		li   r1, 0x3000
		movi r2, 4
		sys  2
		li   r3, 0x3000
		ldw  r4, [r3]
		jr   r4
		halt
	`, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("hijack not reported")
	}
	// The violation value still carries its sentinel chain for callers that
	// treat it as an error.
	if !errors.Is(*res.Violation, latch.ErrControlFlow) {
		t.Fatalf("violation = %v, want ErrControlFlow chain", res.Violation)
	}
	if errors.Is(*res.Violation, latch.ErrLeak) {
		t.Fatal("hijack matched ErrLeak")
	}
	if res.Violation.Addr != 0x2000 {
		t.Fatalf("violation addr: %+v", res.Violation)
	}
}

func TestWithObserverWiresAllLayers(t *testing.T) {
	metrics := latch.NewMetrics()
	sys, err := latch.New(latch.WithObserver(metrics))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Observer != latch.Observer(metrics) {
		t.Fatal("System.Observer not recorded")
	}
	sys.Machine.Env.FileData = []byte{0x00, 0x20, 0x00, 0x00}
	res, err := sys.Run(context.Background(), `
		li   r1, 0x3000
		movi r2, 4
		sys  2
		li   r3, 0x3000
		ldw  r4, [r3]
		jr   r4
		halt
	`, 1000)
	if err != nil || res.Violation == nil {
		t.Fatalf("run: %v, violation: %v", err, res.Violation)
	}
	sys.Module.CheckMem(0x3000, 4)

	s := metrics.Snapshot()
	if s.FileSourceBytes != 4 { // machine layer
		t.Errorf("FileSourceBytes = %d", s.FileSourceBytes)
	}
	if s.ControlFlowViolations != 1 { // engine layer
		t.Errorf("ControlFlowViolations = %d", s.ControlFlowViolations)
	}
	if s.CoarseChecks != 1 || s.CoarsePositives != 1 { // module layer
		t.Errorf("checks/positives = %d/%d", s.CoarseChecks, s.CoarsePositives)
	}
}

// TestSystemResetMatchesNew runs a program that taints a low page and the
// top page of the address space, resets the System for another policy and
// observer, and checks it against New built with them: the state each layer
// exposes, then the outcome, output and full metrics of the same run on
// both.
func TestSystemResetMatchesNew(t *testing.T) {
	const src = `
		li   r1, 0x8000
		movi r2, 8
		sys  2
		li   r1, 0xFFFFF000
		movi r2, 16
		sys  2
		li   r3, 0x8000
		ldw  r4, [r3]
		li   r1, 0xFFFFF000
		movi r2, 16
		sys  5
		movi r1, 0
		sys  1
	`
	input := []byte("0123456789abcdefghijklmn")
	sys, err := latch.New(latch.WithObserver(latch.NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	sys.Machine.Env.FileData = input
	if _, err := sys.Run(context.Background(), src, 1000); err != nil || sys.Machine.Env.Output.Len() != 16 {
		t.Fatalf("first run: %v, output %q", err, sys.Machine.Env.Output.String())
	}

	pol := latch.DefaultPolicy()
	pol.Sampling = latch.Sampling{SampleFraction: 0.5, SampleSeed: 3}
	resetObs, freshObs := latch.NewMetrics(), latch.NewMetrics()
	sys.Reset(pol, resetObs)
	fresh, err := latch.New(latch.WithPolicy(pol), latch.WithObserver(freshObs))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Observer != latch.Observer(resetObs) || sys.Engine.Policy() != pol {
		t.Fatal("Reset did not wire the new observer and policy")
	}

	type state struct {
		domains, words           int
		module                   latch.ModuleStats
		taintedBytes             uint64
		everTainted, tagPages    int
		regs                     [16]uint32
		pc                       uint32
		instret, cycles          uint64
		guestPages               int
		decodeHits, decodeMisses uint64
		fastEntries, fastSteps   uint64
		output                   string
	}
	stateOf := func(s *latch.System) state {
		st := state{
			domains: s.Module.CTT().TaintedDomains(), words: s.Module.CTT().WordsAllocated(),
			module: s.Module.Stats(), taintedBytes: s.Shadow.TaintedBytes(),
			everTainted: s.Shadow.EverTaintedPages(), tagPages: s.Shadow.PagesAllocated(),
			regs: s.Machine.Regs, pc: s.Machine.PC, instret: s.Machine.Instret(), cycles: s.Machine.Cycles(),
			guestPages: s.Machine.Mem.PagesAllocated(), output: s.Machine.Env.Output.String(),
		}
		st.decodeHits, st.decodeMisses = s.Machine.DecodeCacheStats()
		st.fastEntries, _, st.fastSteps = s.Machine.FastLoopStats()
		return st
	}
	if got, want := stateOf(sys), stateOf(fresh); got != want {
		t.Fatalf("after Reset:\n%+v\nNew:\n%+v", got, want)
	}
	var results [2]latch.RunResult
	for i, s := range []*latch.System{sys, fresh} {
		s.Machine.Env.FileData = input
		if results[i], err = s.Run(context.Background(), src, 1000); err != nil {
			t.Fatal(err)
		}
	}
	if results[0] != results[1] {
		t.Fatalf("run after Reset %+v, after New %+v", results[0], results[1])
	}
	if got, want := stateOf(sys), stateOf(fresh); got != want {
		t.Fatalf("run after Reset:\n%+v\nafter New:\n%+v", got, want)
	}
	if got, want := resetObs.Snapshot(), freshObs.Snapshot(); got != want {
		t.Fatalf("metrics after Reset:\n%+v\nafter New:\n%+v", got, want)
	}
}
