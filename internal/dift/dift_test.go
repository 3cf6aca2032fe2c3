package dift

import (
	"testing"
	"testing/quick"

	"latch/internal/isa"
	"latch/internal/policy"
	"latch/internal/shadow"
)

func newEngine(t *testing.T, p policy.Policy) *Engine {
	t.Helper()
	return NewEngine(shadow.MustNew(shadow.DefaultDomainSize), p)
}

func TestLoadPropagatesMemoryToRegister(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.TaintMemory(100, 4, shadow.MustLabel(0))
	in := isa.Instr{Op: isa.LDW, Rd: 1, Rs1: 2}
	if err := e.Commit(0, in, 100); err != nil {
		t.Fatal(err)
	}
	if !e.RegTaint(1).Tainted() {
		t.Fatal("load did not propagate taint")
	}
	// Loading clean memory clears the register.
	if err := e.Commit(4, in, 2000); err != nil {
		t.Fatal(err)
	}
	if e.RegTaint(1).Tainted() {
		t.Fatal("load of clean memory left register tainted")
	}
}

func TestLoadPartialWidths(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.TaintMemory(101, 1, shadow.MustLabel(0)) // only byte 101
	// ldb of 101 taints byte 0 only.
	e.Commit(0, isa.Instr{Op: isa.LDB, Rd: 1}, 101)
	rt := e.RegTaint(1)
	if rt[0] == shadow.TagClean || rt[1] != shadow.TagClean {
		t.Fatalf("ldb taint = %v", rt)
	}
	// ldw at 100 taints byte 1 of the register.
	e.Commit(4, isa.Instr{Op: isa.LDW, Rd: 2}, 100)
	rt = e.RegTaint(2)
	if rt[1] == shadow.TagClean || rt[0] != shadow.TagClean || rt[2] != shadow.TagClean {
		t.Fatalf("ldw taint = %v", rt)
	}
}

func TestStorePropagatesRegisterToMemory(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.SetRegTaint(3, RegTaint{shadow.MustLabel(1), 0, 0, 0})
	e.Commit(0, isa.Instr{Op: isa.STW, Rd: 3, Rs1: 4}, 200)
	if e.Shadow.Get(200) != shadow.MustLabel(1) {
		t.Fatal("store did not propagate byte 0 taint")
	}
	if e.Shadow.Get(201) != shadow.TagClean {
		t.Fatal("store propagated taint to clean byte")
	}
	// Storing a clean register clears memory taint.
	e.Commit(4, isa.Instr{Op: isa.STW, Rd: 5, Rs1: 4}, 200)
	if e.Shadow.Get(200) != shadow.TagClean {
		t.Fatal("clean store did not clear memory taint")
	}
}

func TestALUUnion(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.SetRegTaint(1, splat(shadow.MustLabel(0)))
	e.SetRegTaint(2, splat(shadow.MustLabel(1)))
	e.Commit(0, isa.Instr{Op: isa.ADD, Rd: 3, Rs1: 1, Rs2: 2}, 0)
	if got := e.RegTaint(3).Union(); got != shadow.MustLabel(0)|shadow.MustLabel(1) {
		t.Fatalf("ALU union = %#x", got)
	}
}

func TestXorSelfClears(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.SetRegTaint(1, splat(shadow.MustLabel(0)))
	e.Commit(0, isa.Instr{Op: isa.XOR, Rd: 1, Rs1: 1, Rs2: 1}, 0)
	if e.RegTaint(1).Tainted() {
		t.Fatal("xor r,r,r did not clear taint")
	}
	// xor with a different register unions as usual.
	e.SetRegTaint(1, splat(shadow.MustLabel(0)))
	e.Commit(4, isa.Instr{Op: isa.XOR, Rd: 2, Rs1: 1, Rs2: 3}, 0)
	if !e.RegTaint(2).Tainted() {
		t.Fatal("xor with tainted source lost taint")
	}
}

func TestImmediatesClear(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.SetRegTaint(1, splat(shadow.MustLabel(0)))
	e.Commit(0, isa.Instr{Op: isa.MOVI, Rd: 1, Imm: 5}, 0)
	if e.RegTaint(1).Tainted() {
		t.Fatal("movi did not clear")
	}
	e.SetRegTaint(2, splat(shadow.MustLabel(0)))
	e.Commit(4, isa.Instr{Op: isa.LUI, Rd: 2, Imm: 5}, 0)
	if e.RegTaint(2).Tainted() {
		t.Fatal("lui did not clear")
	}
}

func TestALUImmPropagates(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.SetRegTaint(1, splat(shadow.MustLabel(0)))
	e.Commit(0, isa.Instr{Op: isa.ADDI, Rd: 2, Rs1: 1, Imm: 4}, 0)
	if !e.RegTaint(2).Tainted() {
		t.Fatal("addi lost taint")
	}
}

func TestMovePropagates(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.SetRegTaint(1, RegTaint{shadow.MustLabel(0), 0, shadow.MustLabel(1), 0})
	e.Commit(0, isa.Instr{Op: isa.MOV, Rd: 2, Rs1: 1}, 0)
	if e.RegTaint(2) != e.RegTaint(1) {
		t.Fatal("mov is not byte-precise copy")
	}
}

func TestNoAddressPropagation(t *testing.T) {
	// A load whose *address register* is tainted but whose memory is clean
	// yields a clean result: classical DTA, the substitution-table
	// laundering effect of §3.3.2.
	e := newEngine(t, policy.Default())
	e.SetRegTaint(2, splat(shadow.MustLabel(0))) // index register tainted
	e.Commit(0, isa.Instr{Op: isa.LDW, Rd: 1, Rs1: 2}, 500)
	if e.RegTaint(1).Tainted() {
		t.Fatal("taint propagated through address")
	}
}

func TestCallClearsLR(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.SetRegTaint(isa.RegLR, splat(shadow.MustLabel(0)))
	e.Commit(0, isa.Instr{Op: isa.CALL, Imm: 4}, 0)
	if e.RegTaint(isa.RegLR).Tainted() {
		t.Fatal("call did not clear lr")
	}
}

func TestControlFlowViolation(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.SetRegTaint(1, splat(shadow.MustLabel(0)))
	err := e.IndirectTarget(0x40, 1, 0xdead)
	if err == nil {
		t.Fatal("tainted indirect target not detected")
	}
	v, ok := err.(Violation)
	if !ok || v.Kind != ViolationControlFlow || v.Addr != 0xdead || v.PC != 0x40 {
		t.Fatalf("violation = %+v", err)
	}
	if len(e.Violations()) != 1 {
		t.Fatal("violation not recorded")
	}
	// Clean target passes.
	if err := e.IndirectTarget(0x44, 2, 0x100); err != nil {
		t.Fatal(err)
	}
}

func TestControlFlowCheckDisabled(t *testing.T) {
	p := policy.Default()
	p.CheckControlFlow = false
	e := newEngine(t, p)
	e.SetRegTaint(1, splat(shadow.MustLabel(0)))
	if err := e.IndirectTarget(0, 1, 0); err != nil {
		t.Fatal("check fired while disabled")
	}
}

func TestFailFastFalseRecordsAndContinues(t *testing.T) {
	p := policy.Default()
	p.FailFast = false
	e := newEngine(t, p)
	e.SetRegTaint(1, splat(shadow.MustLabel(0)))
	if err := e.IndirectTarget(0, 1, 0); err != nil {
		t.Fatal("FailFast=false returned error")
	}
	if len(e.Violations()) != 1 {
		t.Fatal("violation not recorded")
	}
}

func TestInputTainting(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.Input(0x100, 8, SourceFile, -1)
	if e.Shadow.RangeTag(0x100, 8) != SourceFile.Tag() {
		t.Fatal("file input not tainted")
	}
	e.Input(0x200, 8, SourceNet, 0)
	if e.Shadow.RangeTag(0x200, 8) != SourceNet.Tag() {
		t.Fatal("net input not tainted")
	}
}

func TestInputPolicyDisabled(t *testing.T) {
	p := policy.Default()
	p.TaintFile = false
	e := newEngine(t, p)
	e.Input(0x100, 8, SourceFile, -1)
	if e.Shadow.TaintedBytes() != 0 {
		t.Fatal("disabled source tainted data")
	}
}

func TestTrustedConnections(t *testing.T) {
	// TrustFraction 1: every connection is trusted, nothing taints.
	p := policy.Default()
	p.TrustFraction = 1
	e := newEngine(t, p)
	c0 := e.Accept()
	c1 := e.Accept()
	if c0 != 0 || c1 != 1 {
		t.Fatalf("conn ids = %d, %d", c0, c1)
	}
	e.Input(0x100, 4, SourceNet, c0)
	e.Input(0x200, 4, SourceNet, c1)
	if e.Shadow.TaintedBytes() != 0 {
		t.Fatal("fully trusted connections tainted data")
	}
	// File input is not subject to connection trust.
	e.Input(0x300, 4, SourceFile, -1)
	if !e.Shadow.RangeTainted(0x300, 4) {
		t.Fatal("trust rule leaked into file source")
	}
	// Trusted input over previously tainted memory clears it.
	e.Shadow.SetRange(0x200, 4, SourceNet.Tag())
	e.Input(0x200, 4, SourceNet, c1)
	if e.Shadow.RangeTainted(0x200, 4) {
		t.Fatal("trusted reuse did not clear stale taint")
	}
}

// At a partial TrustFraction the per-connection decision must agree
// with the policy sampler (the declarative, serializable replacement
// for the old TrustConn hook) and be identical across engines.
func TestTrustFractionDeterministic(t *testing.T) {
	p := policy.Default()
	p.TrustFraction = 0.5
	p.Sampling.SampleSeed = 7
	a := newEngine(t, p)
	b := newEngine(t, p)
	sp := p.Sampler()
	trusted := 0
	for conn := 0; conn < 64; conn++ {
		addr := uint32(0x1000 + conn*8)
		a.Input(addr, 4, SourceNet, a.Accept())
		b.Input(addr, 4, SourceNet, b.Accept())
		gotA := !a.Shadow.RangeTainted(addr, 4)
		gotB := !b.Shadow.RangeTainted(addr, 4)
		want := sp.Trust(0.5, conn)
		if gotA != want || gotB != want {
			t.Fatalf("conn %d: engines trusted=%v/%v, sampler says %v", conn, gotA, gotB, want)
		}
		if want {
			trusted++
		}
	}
	if trusted == 0 || trusted == 64 {
		t.Fatalf("TrustFraction 0.5 trusted %d/64 connections", trusted)
	}
}

func TestLeakCheck(t *testing.T) {
	p := policy.Default()
	p.CheckLeak = true
	e := newEngine(t, p)
	e.TaintMemory(0x300, 2, shadow.MustLabel(0))
	err := e.Output(0x10, 0x300, 4)
	if err == nil {
		t.Fatal("leak not detected")
	}
	if v := err.(Violation); v.Kind != ViolationLeak {
		t.Fatalf("violation kind = %v", v.Kind)
	}
	if err := e.Output(0x10, 0x400, 4); err != nil {
		t.Fatal("clean output flagged")
	}
	// Disabled check.
	e2 := newEngine(t, policy.Default())
	e2.TaintMemory(0x300, 2, shadow.MustLabel(0))
	if err := e2.Output(0, 0x300, 4); err != nil {
		t.Fatal("leak check fired while disabled")
	}
}

func TestTouches(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.TaintMemory(100, 1, shadow.MustLabel(0))
	e.SetRegTaint(1, splat(shadow.MustLabel(0)))
	cases := []struct {
		in   isa.Instr
		addr uint32
		want bool
	}{
		{isa.Instr{Op: isa.LDW, Rd: 2}, 100, true},
		{isa.Instr{Op: isa.LDW, Rd: 2}, 200, false},
		{isa.Instr{Op: isa.LDB, Rd: 2}, 101, false}, // byte after the taint
		{isa.Instr{Op: isa.ADD, Rd: 3, Rs1: 1, Rs2: 2}, 0, true},
		{isa.Instr{Op: isa.ADD, Rd: 3, Rs1: 4, Rs2: 5}, 0, false},
		{isa.Instr{Op: isa.MOV, Rd: 3, Rs1: 1}, 0, true},
		{isa.Instr{Op: isa.MOVI, Rd: 1}, 0, false},          // imm write doesn't "touch"
		{isa.Instr{Op: isa.STW, Rd: 1, Rs1: 6}, 300, true},  // tainted data stored
		{isa.Instr{Op: isa.STW, Rd: 6, Rs1: 6}, 100, true},  // overwriting tainted mem
		{isa.Instr{Op: isa.STW, Rd: 6, Rs1: 6}, 400, false}, // clean store
		{isa.Instr{Op: isa.JR, Rs1: 1}, 0, true},
		{isa.Instr{Op: isa.JR, Rs1: 2}, 0, false},
		{isa.Instr{Op: isa.BEQ, Rd: 1, Rs1: 2}, 0, true},
		{isa.Instr{Op: isa.JMP}, 0, false},
	}
	for _, c := range cases {
		if got := e.Touches(c.in, c.addr); got != c.want {
			t.Errorf("Touches(%v, %d) = %v, want %v", c.in, c.addr, got, c.want)
		}
	}
}

func TestInstructionCounters(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.TaintMemory(100, 4, shadow.MustLabel(0))
	e.Commit(0, isa.Instr{Op: isa.LDW, Rd: 1}, 100) // tainted
	e.Commit(4, isa.Instr{Op: isa.NOP}, 0)          // clean
	e.Commit(8, isa.Instr{Op: isa.NOP}, 0)          // clean
	if e.InstructionsTotal() != 3 || e.InstructionsTainted() != 1 {
		t.Fatalf("counters = %d/%d", e.InstructionsTotal(), e.InstructionsTainted())
	}
}

func TestSetTaintByteAndMask(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.SetTaintByte(50, shadow.MustLabel(2))
	if e.Shadow.Get(50) != shadow.MustLabel(2) {
		t.Fatal("stnt semantics wrong")
	}
	e.SetRegTaintMask(0b110, shadow.MustLabel(0))
	if e.RegTaint(0).Tainted() || !e.RegTaint(1).Tainted() || !e.RegTaint(2).Tainted() {
		t.Fatal("strf semantics wrong")
	}
	e.SetRegTaintMask(0, shadow.MustLabel(0))
	if e.RegTaint(1).Tainted() {
		t.Fatal("strf did not clear")
	}
}

func TestReset(t *testing.T) {
	e := newEngine(t, policy.Default())
	e.SetRegTaint(1, splat(shadow.MustLabel(0)))
	e.IndirectTarget(0, 1, 0)
	e.Commit(0, isa.Instr{Op: isa.NOP}, 0)
	e.Accept()
	e.Reset()
	if e.RegTaint(1).Tainted() || len(e.Violations()) != 0 || e.InstructionsTotal() != 0 {
		t.Fatal("Reset incomplete")
	}
	if e.Accept() != 0 {
		t.Fatal("conn counter not reset")
	}
}

func TestSourceStrings(t *testing.T) {
	if SourceFile.String() != "file" || SourceNet.String() != "net" {
		t.Fatal("source names wrong")
	}
	if SourceFile.Tag() == SourceNet.Tag() {
		t.Fatal("sources share a label")
	}
	if ViolationControlFlow.String() != "control-flow" || ViolationLeak.String() != "leak" {
		t.Fatal("violation names wrong")
	}
}

// Property: a store of register r to addr then a load from addr into r'
// makes r' taint equal r's taint on the stored bytes (round trip through
// shadow memory preserves byte-precise taint).
func TestStoreLoadTaintRoundTrip(t *testing.T) {
	f := func(b0, b1, b2, b3 uint8, addr uint32) bool {
		e := NewEngine(shadow.MustNew(64), policy.Default())
		rt := RegTaint{shadow.Tag(b0), shadow.Tag(b1), shadow.Tag(b2), shadow.Tag(b3)}
		e.SetRegTaint(1, rt)
		e.Commit(0, isa.Instr{Op: isa.STW, Rd: 1, Rs1: 2}, addr)
		e.Commit(4, isa.Instr{Op: isa.LDW, Rd: 3, Rs1: 2}, addr)
		return e.RegTaint(3) == rt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ALU union is commutative in its sources.
func TestALUUnionCommutative(t *testing.T) {
	f := func(a, b uint8) bool {
		e1 := NewEngine(shadow.MustNew(64), policy.Default())
		e2 := NewEngine(shadow.MustNew(64), policy.Default())
		e1.SetRegTaint(1, splat(shadow.Tag(a)))
		e1.SetRegTaint(2, splat(shadow.Tag(b)))
		e2.SetRegTaint(1, splat(shadow.Tag(b)))
		e2.SetRegTaint(2, splat(shadow.Tag(a)))
		e1.Commit(0, isa.Instr{Op: isa.ADD, Rd: 3, Rs1: 1, Rs2: 2}, 0)
		e2.Commit(0, isa.Instr{Op: isa.ADD, Rd: 3, Rs1: 1, Rs2: 2}, 0)
		return e1.RegTaint(3) == e2.RegTaint(3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
