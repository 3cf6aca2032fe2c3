// Package dift implements the byte-precise dynamic information flow tracking
// engine that plays the role libdft plays in the paper: classical Dynamic
// Taint Analysis propagation over the LA32 ISA, a byte-granular taint
// register file, shadow-memory-backed memory tags, taint initialization from
// external input sources, and data-use validation (tainted control transfers
// and tainted output leaks).
//
// Propagation follows the classical DTA rules the paper's evaluation uses
// ([32]): taint is copied by data movement, unioned by computation, cleared
// by immediates and by xor-with-self, and — crucially — *not* propagated
// through addresses. The last rule is what makes substitution-table kernels
// (bzip2's tables, TLS S-boxes) replace tainted data with untainted
// precomputed values, the effect §3.3.2 observes.
package dift

import (
	"errors"
	"fmt"
	"math/bits"

	"latch/internal/isa"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/telemetry"
)

// InputSource identifies where external data entered the program; each
// source gets its own taint label so policies can distinguish file input
// (SPEC workloads) from network input (server workloads).
type InputSource int

// Input sources.
const (
	SourceFile InputSource = iota
	SourceNet
	numSources
)

// Compile-time guards: the policy sampler kinds mirror the input source
// values (Engine.Input converts directly). Either expression underflows
// to a negative untyped constant — a compile error — if they drift.
const (
	_ = uint(policy.KindFile - policy.Kind(SourceFile))
	_ = uint(policy.Kind(SourceFile) - policy.KindFile)
	_ = uint(policy.KindNet - policy.Kind(SourceNet))
	_ = uint(policy.Kind(SourceNet) - policy.KindNet)
)

// Tag returns the taint label associated with the source.
func (s InputSource) Tag() shadow.Tag {
	return shadow.MustLabel(int(s))
}

// String names the source.
func (s InputSource) String() string {
	switch s {
	case SourceFile:
		return "file"
	case SourceNet:
		return "net"
	}
	return fmt.Sprintf("source(%d)", int(s))
}

// ViolationKind classifies policy violations.
type ViolationKind int

// Violation kinds.
const (
	// ViolationControlFlow: an indirect control transfer used a tainted
	// target — the signature of a control-flow hijack (§1).
	ViolationControlFlow ViolationKind = iota
	// ViolationLeak: tainted bytes reached an external output sink.
	ViolationLeak
)

// String names the violation kind.
func (k ViolationKind) String() string {
	switch k {
	case ViolationControlFlow:
		return "control-flow"
	case ViolationLeak:
		return "leak"
	}
	return fmt.Sprintf("violation(%d)", int(k))
}

// Sentinel errors identifying the violation kinds. A Violation wraps the
// sentinel matching its Kind, so callers classify failures with the
// standard errors package instead of switching on struct fields:
//
//	var v dift.Violation
//	if errors.As(err, &v) { ... }          // full detail (PC, Addr, Tag)
//	if errors.Is(err, dift.ErrControlFlow) // kind only
var (
	// ErrControlFlow: an indirect control transfer used a tainted target.
	ErrControlFlow = errors.New("dift: tainted control transfer")
	// ErrLeak: tainted bytes reached an external output sink.
	ErrLeak = errors.New("dift: tainted data leak")
)

// Err returns the sentinel error for the kind (nil for unknown kinds).
func (k ViolationKind) Err() error {
	switch k {
	case ViolationControlFlow:
		return ErrControlFlow
	case ViolationLeak:
		return ErrLeak
	}
	return nil
}

// Violation records one policy violation.
type Violation struct {
	Kind ViolationKind
	PC   uint32
	Addr uint32 // jump target or leaking buffer address
	Tag  shadow.Tag
}

// Error renders the violation as an error string.
func (v Violation) Error() string {
	return fmt.Sprintf("dift: %s violation at pc=%#x addr=%#x tag=%#02x", v.Kind, v.PC, v.Addr, v.Tag)
}

// Unwrap exposes the sentinel for the violation's kind, making Violation a
// proper error chain: errors.Is(v, ErrControlFlow) and errors.As both work.
func (v Violation) Unwrap() error { return v.Kind.Err() }

// RegTaint is the byte-granular taint of one 32-bit register.
type RegTaint [4]shadow.Tag

// Union returns the combined tag across all bytes.
func (r RegTaint) Union() shadow.Tag {
	return r[0] | r[1] | r[2] | r[3]
}

// Tainted reports whether any byte is tainted.
func (r RegTaint) Tainted() bool { return r.Union() != shadow.TagClean }

// splat returns a RegTaint with every byte set to t.
func splat(t shadow.Tag) RegTaint { return RegTaint{t, t, t, t} }

// Engine is the precise DIFT engine.
type Engine struct {
	Shadow *shadow.Shadow
	policy policy.Policy

	// sampler makes the policy's deterministic source-sampling and
	// connection-trust decisions; srcOrdinals numbers the source events
	// per kind so a given (seed, kind, ordinal) is stable across runs.
	sampler     policy.Sampler
	srcOrdinals [numSources]uint64

	regs [isa.NumRegs]RegTaint
	// trf is the taint register file (TRF) of §5.1's hardware mode: bit r
	// is set exactly while regs[r] holds taint. Every register-taint write
	// goes through setReg, which keeps it current.
	trf uint16

	violations []Violation
	obs        telemetry.Observer

	// connCounter assigns ids to accepted connections.
	connCounter int

	// stats
	instrTotal   uint64
	instrTainted uint64
}

// NewEngine builds an engine over the given shadow memory.
func NewEngine(sh *shadow.Shadow, p policy.Policy) *Engine {
	return &Engine{Shadow: sh, policy: p, sampler: p.Sampler()}
}

// Policy returns the engine's policy.
func (e *Engine) Policy() policy.Policy { return e.policy }

// SetObserver attaches obs to the engine: policy violations are emitted
// through it. Nil (the default) disables emission.
func (e *Engine) SetObserver(obs telemetry.Observer) { e.obs = obs }

// RegTaint returns the taint of register r.
func (e *Engine) RegTaint(r int) RegTaint { return e.regs[r] }

// SetRegTaint assigns the taint of register r.
func (e *Engine) SetRegTaint(r int, t RegTaint) { e.setReg(r, t) }

// setReg assigns the taint of register r and keeps its TRF bit current.
func (e *Engine) setReg(r int, t RegTaint) {
	e.regs[r] = t
	if t.Tainted() {
		e.trf |= 1 << r
	} else {
		e.trf &^= 1 << r
	}
}

// TaintMemory marks [addr, addr+n) with tag; the taint-initialization
// operation (step 1 in Figure 3).
func (e *Engine) TaintMemory(addr uint32, n int, tag shadow.Tag) {
	e.Shadow.SetRange(addr, n, tag)
}

// Violations returns all recorded violations.
func (e *Engine) Violations() []Violation { return e.violations }

// InstructionsTotal returns the number of committed instructions observed.
func (e *Engine) InstructionsTotal() uint64 { return e.instrTotal }

// InstructionsTainted returns how many observed instructions touched taint.
func (e *Engine) InstructionsTainted() uint64 { return e.instrTainted }

func (e *Engine) violate(v Violation) error {
	e.violations = append(e.violations, v)
	if e.obs != nil {
		e.obs.Violation(telemetry.ViolationKind(v.Kind), v.PC, v.Addr)
	}
	if e.policy.FailFast {
		return v
	}
	return nil
}

// RegReads returns in's register read set, bit r for register r: the
// registers whose taint Commit propagates or checks, which §5.1's hardware
// mode tests against the TRF. DTA does not propagate through addresses, so
// the base register of a load or store is not in it: a store reads only its
// data register. Touches tests the same registers.
func RegReads(in isa.Instr) uint16 {
	switch in.Op.Class() {
	case isa.ClassMove, isa.ClassALUImm, isa.ClassJumpInd:
		return 1 << in.Rs1
	case isa.ClassALU2:
		return 1<<in.Rs1 | 1<<in.Rs2
	case isa.ClassStore:
		return 1 << in.Rd
	case isa.ClassBranch:
		return 1<<in.Rd | 1<<in.Rs1
	}
	return 0
}

// RegWrites returns the registers whose taint Commit writes: Rd for move,
// immediate, ALU and load, LR for call and callr, and none for any other
// instruction.
func RegWrites(in isa.Instr) uint16 {
	switch in.Op.Class() {
	case isa.ClassMove, isa.ClassImm, isa.ClassALU2, isa.ClassALUImm, isa.ClassLoad:
		return 1 << in.Rd
	case isa.ClassJump, isa.ClassJumpInd:
		if in.Op == isa.CALL || in.Op == isa.CALLR {
			return 1 << isa.RegLR
		}
	}
	return 0
}

// Touches reports whether instruction in, with effective memory address addr
// (for loads/stores), manipulates tainted data under the current precise
// state. This is the ground-truth predicate of the paper's locality analysis
// ("instructions touching tainted data", Tables 1–2) and of the S-LATCH
// false-positive filter. Its register tests are RegReads, spelled out per
// class because Touches runs in every Commit.
func (e *Engine) Touches(in isa.Instr, addr uint32) bool {
	switch in.Op.Class() {
	case isa.ClassMove:
		return e.regs[in.Rs1].Tainted()
	case isa.ClassALU2:
		return e.regs[in.Rs1].Tainted() || e.regs[in.Rs2].Tainted()
	case isa.ClassALUImm:
		return e.regs[in.Rs1].Tainted()
	case isa.ClassLoad:
		return e.Shadow.RangeTainted(addr, in.Op.MemSize())
	case isa.ClassStore:
		return e.regs[in.Rd].Tainted() || e.Shadow.RangeTainted(addr, in.Op.MemSize())
	case isa.ClassBranch:
		return e.regs[in.Rd].Tainted() || e.regs[in.Rs1].Tainted()
	case isa.ClassJumpInd:
		return e.regs[in.Rs1].Tainted()
	}
	return false
}

// Commit propagates taint for a committed instruction; addr is the effective
// memory address for loads and stores. It must be called after the VM has
// executed the instruction's architectural semantics (memory taint for
// stores is derived from register state, which stores do not modify, and
// vice versa for loads, so ordering is safe). Returns a violation error when
// the policy is FailFast and a check fires.
func (e *Engine) Commit(pc uint32, in isa.Instr, addr uint32) error {
	e.instrTotal++
	if e.Touches(in, addr) {
		e.instrTainted++
	}
	switch in.Op.Class() {
	case isa.ClassMove:
		e.setReg(int(in.Rd), e.regs[in.Rs1])
	case isa.ClassImm:
		e.setReg(int(in.Rd), RegTaint{})
	case isa.ClassALU2:
		if e.policy.Propagation == policy.PropagationPIFT {
			// PIFT does not track taint through computation.
			e.setReg(int(in.Rd), RegTaint{})
			break
		}
		if in.Op == isa.XOR && in.Rs1 == in.Rs2 {
			// xor r, a, a: result is constant zero — classical DTA clears.
			e.setReg(int(in.Rd), RegTaint{})
			break
		}
		u := e.regs[in.Rs1].Union() | e.regs[in.Rs2].Union()
		e.setReg(int(in.Rd), splat(u))
	case isa.ClassALUImm:
		if e.policy.Propagation == policy.PropagationPIFT {
			e.setReg(int(in.Rd), RegTaint{})
			break
		}
		e.setReg(int(in.Rd), splat(e.regs[in.Rs1].Union()))
	case isa.ClassLoad:
		size := in.Op.MemSize()
		var rt RegTaint
		for i := 0; i < size; i++ {
			rt[i] = e.Shadow.Get(addr + uint32(i))
		}
		// Zero-extension: upper bytes are untainted constants.
		e.setReg(int(in.Rd), rt)
	case isa.ClassStore:
		size := in.Op.MemSize()
		rt := e.regs[in.Rd]
		for i := 0; i < size; i++ {
			e.Shadow.Set(addr+uint32(i), rt[i])
		}
	case isa.ClassJump:
		if in.Op == isa.CALL {
			// The return address is an untainted constant.
			e.setReg(isa.RegLR, RegTaint{})
		}
	case isa.ClassJumpInd:
		if in.Op == isa.CALLR {
			e.setReg(isa.RegLR, RegTaint{})
		}
	}
	return nil
}

// EpochTaintFree reports whether every register is taint-free: the TRF is
// zero (vm.FastTracker). Run's fast loop needs no more than this from a
// tracker that does not expose its TRF; the engine does (TaintedRegs), so
// the loop also runs past tainted registers its instructions do not read.
func (e *Engine) EpochTaintFree() bool { return e.trf == 0 }

// TaintedRegs returns the TRF (vm.TaintRegFile): bit r is set exactly while
// register r holds taint.
func (e *Engine) TaintedRegs() uint16 { return e.trf }

// ClearRegs clears the taint of every register in mask (vm.TaintRegFile):
// the fast loop's settlement for tainted registers it overwrote with clean
// values, which Commit would have cleared one at a time.
func (e *Engine) ClearRegs(mask uint16) {
	for m := mask; m != 0; m &= m - 1 {
		e.regs[bits.TrailingZeros16(m)] = RegTaint{}
	}
	e.trf &^= mask
}

// TaintResident reports whether any memory byte currently holds taint
// (vm.FastTracker). When false, the fast loop skips even the coarse
// per-access screen: with clean registers and no tainted memory anywhere,
// no fast-set instruction can create taint.
func (e *Engine) TaintResident() bool { return e.Shadow.TaintedBytes() != 0 }

// MemCoarseClean reports whether [addr, addr+size) is taint-free at the
// coarse domain granularity (vm.FastTracker) — the software rendering of
// the CTT/TLB taint-bit check that guards the paper's hardware fast path.
func (e *Engine) MemCoarseClean(addr uint32, size int) bool {
	return !e.Shadow.RangeCoarseTainted(addr, size)
}

// CommitClean accounts n committed instructions known to be taint-free
// (vm.FastTracker): the batched replacement for n Commit calls whose only
// effect would have been incrementing the total.
func (e *Engine) CommitClean(n uint64) { e.instrTotal += n }

// IndirectTarget validates an indirect control transfer through register
// reg to the given target before it executes.
func (e *Engine) IndirectTarget(pc uint32, reg int, target uint32) error {
	if !e.policy.CheckControlFlow {
		return nil
	}
	if t := e.regs[reg].Union(); t != shadow.TagClean {
		return e.violate(Violation{Kind: ViolationControlFlow, PC: pc, Addr: target, Tag: t})
	}
	return nil
}

// Input records external data arriving in [addr, addr+n): taint
// initialization per the policy. conn is the connection id for network
// input (-1 for file input).
//
// This is the selective-tracing hook: each source event gets a per-kind
// ordinal and the policy sampler decides — deterministically in (seed,
// kind, ordinal) — whether it is tainted. Connection trust (the
// declarative TrustFraction replacement for the old TrustConn hook) is
// evaluated by the same sampler, keyed on the connection id.
func (e *Engine) Input(addr uint32, n int, source InputSource, conn int) {
	ord := e.srcOrdinals[source]
	e.srcOrdinals[source]++
	var taint bool
	switch source {
	case SourceFile:
		taint = e.policy.TaintFile
	case SourceNet:
		taint = e.policy.TaintNet
		if taint && e.sampler.Trust(e.policy.TrustFraction, conn) {
			taint = false
		}
	}
	// policy.KindFile/KindNet are defined to equal SourceFile/SourceNet.
	if taint && !e.sampler.Sample(policy.Kind(source), ord) {
		taint = false
	}
	if taint {
		e.Shadow.SetRange(addr, n, source.Tag())
	} else {
		// Untrusted-turned-trusted (or sampled-out) input overwrites
		// memory with clean data.
		e.Shadow.SetRange(addr, n, shadow.TagClean)
	}
}

// Output validates data leaving through an output sink from [addr, addr+n).
func (e *Engine) Output(pc uint32, addr uint32, n int) error {
	if !e.policy.CheckLeak {
		return nil
	}
	if t := e.Shadow.RangeTag(addr, n); t != shadow.TagClean {
		return e.violate(Violation{Kind: ViolationLeak, PC: pc, Addr: addr, Tag: t})
	}
	return nil
}

// Accept registers a new inbound connection and returns its id.
func (e *Engine) Accept() int {
	id := e.connCounter
	e.connCounter++
	return id
}

// SetTaintByte implements the semantics of the stnt instruction (Table 5):
// the software DIFT layer updates the taint status of a single memory byte,
// writing through to the shadow (and, via shadow watchers, to the coarse
// taint state) without touching the data caches.
func (e *Engine) SetTaintByte(addr uint32, tag shadow.Tag) {
	e.Shadow.Set(addr, tag)
}

// SetRegTaintMask implements the semantics of the strf instruction
// (Table 5): bit i of mask sets or clears the taint flag of register i.
func (e *Engine) SetRegTaintMask(mask uint32, tag shadow.Tag) {
	for r := 0; r < isa.NumRegs; r++ {
		if mask&(1<<r) != 0 {
			e.setReg(r, splat(tag))
		} else {
			e.setReg(r, RegTaint{})
		}
	}
}

// Reset clears register taint, violations, and counters; the shadow memory
// is left to the caller (it may be shared with the coarse state).
func (e *Engine) Reset() {
	e.regs = [isa.NumRegs]RegTaint{}
	e.trf = 0
	e.violations = nil
	e.connCounter = 0
	e.srcOrdinals = [numSources]uint64{}
	e.instrTotal = 0
	e.instrTainted = 0
}
