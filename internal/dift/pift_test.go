package dift

import (
	"testing"

	"latch/internal/isa"
	"latch/internal/policy"
	"latch/internal/shadow"
)

func piftEngine() *Engine {
	p := policy.Default()
	p.Propagation = policy.PropagationPIFT
	return NewEngine(shadow.MustNew(shadow.DefaultDomainSize), p)
}

func TestPropagationModeString(t *testing.T) {
	if policy.PropagationClassical.String() != "classical" || policy.PropagationPIFT.String() != "pift" {
		t.Fatal("mode names")
	}
}

func TestPIFTLoadStoreChainKeepsTaint(t *testing.T) {
	e := piftEngine()
	e.TaintMemory(100, 4, shadow.MustLabel(0))
	// load -> mov -> store: pure data movement keeps taint under PIFT.
	e.Commit(0, isa.Instr{Op: isa.LDW, Rd: 1}, 100)
	e.Commit(4, isa.Instr{Op: isa.MOV, Rd: 2, Rs1: 1}, 0)
	e.Commit(8, isa.Instr{Op: isa.STW, Rd: 2, Rs1: 3}, 200)
	if !e.Shadow.RangeTainted(200, 4) {
		t.Fatal("load/store chain lost taint under PIFT")
	}
}

func TestPIFTComputationDropsTaint(t *testing.T) {
	e := piftEngine()
	e.TaintMemory(100, 4, shadow.MustLabel(0))
	e.Commit(0, isa.Instr{Op: isa.LDW, Rd: 1}, 100)
	// An ALU op severs the chain: the result is treated as fresh.
	e.Commit(4, isa.Instr{Op: isa.ADD, Rd: 2, Rs1: 1, Rs2: 1}, 0)
	if e.RegTaint(2).Tainted() {
		t.Fatal("PIFT propagated through computation")
	}
	e.Commit(8, isa.Instr{Op: isa.ADDI, Rd: 3, Rs1: 1, Imm: 0}, 0)
	if e.RegTaint(3).Tainted() {
		t.Fatal("PIFT propagated through an immediate op")
	}
	// The source register itself remains tainted.
	if !e.RegTaint(1).Tainted() {
		t.Fatal("PIFT cleared the loaded register")
	}
}

func TestClassicalVersusPIFTUnderTainting(t *testing.T) {
	// The same instruction sequence under both modes: classical taints the
	// computed result, PIFT does not — the approximation the paper's
	// related-work section describes.
	run := func(mode policy.Propagation) bool {
		p := policy.Default()
		p.Propagation = mode
		e := NewEngine(shadow.MustNew(shadow.DefaultDomainSize), p)
		e.TaintMemory(100, 4, shadow.MustLabel(0))
		e.Commit(0, isa.Instr{Op: isa.LDW, Rd: 1}, 100)
		e.Commit(4, isa.Instr{Op: isa.ADD, Rd: 2, Rs1: 1, Rs2: 4}, 0)
		e.Commit(8, isa.Instr{Op: isa.STW, Rd: 2, Rs1: 5}, 300)
		return e.Shadow.RangeTainted(300, 4)
	}
	if !run(policy.PropagationClassical) {
		t.Fatal("classical DTA lost the computed taint")
	}
	if run(policy.PropagationPIFT) {
		t.Fatal("PIFT tainted a computed value")
	}
}

func TestPIFTCoarseStateStillSound(t *testing.T) {
	// LATCH's no-false-negative property is relative to the configured
	// propagation: everything PIFT considers tainted is visible coarsely.
	e := piftEngine()
	e.TaintMemory(100, 4, shadow.MustLabel(0))
	e.Commit(0, isa.Instr{Op: isa.LDW, Rd: 1}, 100)
	e.Commit(4, isa.Instr{Op: isa.STW, Rd: 1, Rs1: 2}, 0x2000)
	if !e.Shadow.MustTaintedAt(0x2000, 64) {
		t.Fatal("coarse view missed PIFT taint")
	}
}
