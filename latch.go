// Package latch is a from-scratch reproduction of "LATCH: A Locality-Aware
// Taint CHecker" (MICRO 2019): a two-tier dynamic information flow tracking
// (DIFT) architecture that monitors execution with lightweight coarse-
// grained taint checks and invokes byte-precise tracking only during the
// phases of execution that actually manipulate sensitive data.
//
// The package is a facade over the full implementation:
//
//   - a 32-bit load/store ISA (LA32), assembler, and virtual machine that
//     stand in for the paper's Pin-instrumented x86 host;
//   - a byte-precise DIFT engine with classical Dynamic Taint Analysis
//     propagation and control-flow/leak checking (the libdft role);
//   - the core LATCH hardware model: taint domains, the Coarse Taint Table,
//     the Coarse Taint Cache with clear bits, TLB page taint bits, and the
//     taint register file;
//   - the three integrations evaluated in the paper: S-LATCH (accelerated
//     single-core software DIFT), P-LATCH (filtered two-core log-based
//     DIFT), and H-LATCH (reduced-complexity hardware DIFT);
//   - the calibrated benchmark workload registry (SPEC CPU 2006 and network
//     application profiles) and the experiment harness that regenerates
//     every table and figure of the paper's evaluation.
//
// Quick start: assemble a program, run it under precise DIFT with LATCH
// coarse state attached, and observe a control-flow hijack being caught.
//
//	sys, err := latch.New() // options: WithConfig, WithPolicy, WithObserver
//	...
//	res, err := sys.Run(ctx, src, 1_000_000)
//	if res.Violation != nil { ... } // the attack, as data
//
// Every run entry point takes a context.Context: cancellation and deadlines
// stop execution within a bounded number of instructions (see
// vm.CancelCheckInterval), which is what lets the same engine serve
// long-lived, deadline-bearing requests (cmd/latch-serve) and batch CLIs
// alike.
//
// Observability: pass latch.WithObserver(latch.NewMetrics()) to New and the
// whole stack — coarse checks, cache misses, violations, taint sources —
// reports into a snapshotable registry; see the Observer type.
package latch

import (
	"latch/internal/dift"
	"latch/internal/engine"
	"latch/internal/isa"
	latchcore "latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/vm"
)

// Re-exported core types. These aliases are the public names; the internal
// packages are implementation layout, not API.
type (
	// Config is the LATCH hardware geometry (domain size, CTC/TLB entries,
	// precise taint cache shape, clear policy).
	Config = latchcore.Config
	// Module is the core LATCH hardware module.
	Module = latchcore.Module
	// ModuleStats are the module's event counters.
	ModuleStats = latchcore.Stats
	// CheckResult is the outcome of one coarse memory check.
	CheckResult = latchcore.CheckResult
	// ClearPolicy selects eager (H-LATCH) or lazy (S-LATCH) coarse clears.
	ClearPolicy = latchcore.ClearPolicy

	// Policy is the declarative, JSON-serializable taint policy: sources,
	// checks, propagation mode, the TrustFraction rule, and the Sampling
	// selective-tracing spec.
	Policy = policy.Policy
	// Sampling is the deterministic source-sampling spec carried by a
	// Policy (selective tracing): a seeded per-source-event Bernoulli
	// filter that taints the same subset of inputs across runs and
	// backends.
	Sampling = policy.Sampling
	// Propagation selects the taint-propagation rule set of a Policy.
	Propagation = policy.Propagation
	// Engine is the byte-precise DIFT engine.
	Engine = dift.Engine
	// Violation is a DIFT policy violation (control-flow hijack or leak).
	Violation = dift.Violation

	// Tag is a byte taint tag (bitmask of labels).
	Tag = shadow.Tag
	// Shadow is the byte-precise shadow taint memory.
	Shadow = shadow.Shadow

	// Program is an assembled LA32 image.
	Program = isa.Program
	// Instr is a decoded LA32 instruction.
	Instr = isa.Instr
	// Machine is the LA32 virtual machine.
	Machine = vm.CPU
	// Env is the machine's deterministic external world (file data,
	// inbound requests, output sink).
	Env = vm.Env

	// System is a complete single-machine DIFT stack: one shadow taint
	// state shared by the byte-precise engine and the LATCH module,
	// attached to an LA32 machine. New builds one; Reset clears one in
	// place for the next run, and RunProgram returns a policy violation
	// inside its RunResult, as data.
	System = engine.Stack
	// RunResult is the typed outcome of one System run: exit code, steps,
	// and the violation that stopped the program, if any.
	RunResult = engine.RunResult
)

// Clear policies (see ClearPolicy).
const (
	EagerClear = latchcore.EagerClear
	LazyClear  = latchcore.LazyClear
)

// Violation kinds.
const (
	ViolationControlFlow = dift.ViolationControlFlow
	ViolationLeak        = dift.ViolationLeak
)

// Propagation modes (see Policy.Propagation).
const (
	PropagationClassical = policy.PropagationClassical
	PropagationPIFT      = policy.PropagationPIFT
)

// TagClean is the zero (untainted) tag.
const TagClean = shadow.TagClean

// Label returns the tag with only taint label n set, or an error when n is
// outside the representable range 0..7.
func Label(n int) (Tag, error) { return shadow.Label(n) }

// MustLabel is Label panicking on error, for statically known label numbers.
func MustLabel(n int) Tag { return shadow.MustLabel(n) }

// DefaultConfig returns the paper's main LATCH configuration: 64-byte taint
// domains, a 16-entry fully associative CTC, a 128-entry TLB with two page
// taint bits, and the 128-byte 4-way precise taint cache.
func DefaultConfig() Config { return latchcore.DefaultConfig() }

// DefaultPolicy returns the paper's conservative DIFT policy: all file and
// network input is tainted and tainted indirect control transfers fault.
func DefaultPolicy() Policy { return policy.Default() }

// Assemble translates LA32 assembly into a loadable program.
func Assemble(src string) (*Program, error) { return isa.Assemble(src) }
