package engine

import (
	"context"
	"errors"

	"latch/internal/dift"
	"latch/internal/isa"
	"latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/telemetry"
	"latch/internal/vm"
)

// Stack is the machine stack program-driven runs build on: an LA32 machine
// whose tracker is the byte-precise DIFT engine, over the LATCH module and
// shadow taint state of a Session. This is the configuration S-LATCH runs
// on one core: the module provides the coarse checks, the engine the
// precise semantics. The facade's latch.System is this type; the
// co-simulated machines (cosim.Monitor, platch.Parallel) build one and
// install themselves as its machine's tracker.
type Stack struct {
	Machine *vm.CPU
	Engine  *dift.Engine
	Module  *latch.Module
	Shadow  *shadow.Shadow

	// Observer is the observer attached to every layer (nil if none).
	Observer telemetry.Observer
}

// NewStack builds a stack for cfg under pol: a new Session's module and
// shadow, a DIFT engine over that shadow as the machine's tracker, and obs
// attached to the session and to every layer. It returns the session too,
// for a caller that drives a backend over it (cosim.Monitor).
func NewStack(cfg latch.Config, pol policy.Policy, obs telemetry.Observer) (*Stack, *Session, error) {
	sess, err := NewSession(cfg)
	if err != nil {
		return nil, nil, err
	}
	sess.AttachObserver(obs)
	s := &Stack{Machine: vm.New(), Module: sess.Module, Shadow: sess.Shadow}
	s.wire(dift.NewEngine(sess.Shadow, pol), obs)
	return s, sess, nil
}

// Reset returns s to the state NewStack would build for pol and obs, reusing
// its shadow, module, and machine in place: the module is cleared over the
// pages the last run tainted, then the shadow and the machine are emptied
// onto their page free lists (the machine gets a fresh Env), and a fresh
// engine for pol is wired in with obs attached to every layer. A reset
// costs what the last run touched, so a long-lived caller (cmd/latch-serve's
// workers) pays the table allocation once rather than per run; results are
// identical to a fresh stack's. The Config is kept: unlike Session.Recycle,
// Reset flushes the module's caches instead of rebuilding them. Storage the
// last run grew — memory pages, tables grown past Config.AddressSpan — is
// kept too; callers that bound what they keep ask Retainable first.
//
// Reset makes the engine the machine's tracker again, so a machine whose
// tracker wraps the engine (cosim.Monitor, platch.Parallel) is built anew
// instead.
func (s *Stack) Reset(pol policy.Policy, obs telemetry.Observer) {
	s.Module.Reset() // before the shadow, which forgets the tainted pages
	s.Shadow.Reset()
	s.Machine.Reset()
	s.wire(dift.NewEngine(s.Shadow, pol), obs)
}

// wire makes eng, an engine over the shared shadow, the machine's tracker
// and attaches obs to every layer.
func (s *Stack) wire(eng *dift.Engine, obs telemetry.Observer) {
	s.Engine = eng
	eng.SetObserver(obs)
	s.Module.SetObserver(obs)
	s.Machine.SetTracker(eng)
	s.Machine.SetObserver(obs)
	s.Observer = obs
}

// Retainable reports whether s may be kept for another run when what a
// kept stack holds is bounded by bound pages (see retainable).
func (s *Stack) Retainable(bound int) bool {
	return retainable(s.Machine.Mem.PagesAllocated(), s.Shadow, s.Module, bound)
}

// retainable is the one rule for what a recycled stack or idle session may
// keep: at most bound guest pages and bound tag pages, and coarse tables of
// the size Config.AddressSpan gives them. One tainted byte near the top of
// the address space grows those tables to about 16 MiB at DefaultConfig,
// and neither Reset nor Recycle shrinks them. Each owner keeps its own
// bound.
func retainable(guestPages int, sh *shadow.Shadow, m *latch.Module, bound int) bool {
	return guestPages <= bound && sh.PagesAllocated() <= bound && !m.TablesGrown()
}

// RunResult is the typed outcome of one program run: the machine's exit
// code, the number of instructions this run committed, and — when the DIFT
// policy fired — the violation itself, as data rather than an error. A
// violation is an expected analysis outcome (it is the whole point of the
// checker), so it terminates execution but does not make the run itself
// fail.
type RunResult struct {
	// ExitCode is the code passed to sys exit (0 for HALT, and 0 when a
	// violation stopped the program before it exited).
	ExitCode uint32
	// Steps is the number of instructions committed by this run.
	Steps uint64
	// Violation is the policy violation that stopped the program, or nil
	// for a clean run.
	Violation *dift.Violation
}

// Run assembles src and runs it with RunProgram; an assembly error is
// returned as the error.
func (s *Stack) Run(ctx context.Context, src string, maxSteps uint64) (RunResult, error) {
	prog, err := isa.Assemble(src)
	if err != nil {
		return RunResult{}, err
	}
	return s.RunProgram(ctx, prog, maxSteps)
}

// RunProgram loads prog and executes up to maxSteps instructions under the
// context: cancellation or a deadline stops the machine within
// vm.CancelCheckInterval instructions and surfaces ctx.Err(). Loading
// copies the image, so one assembled Program may be run by any number of
// machines.
//
// A DIFT policy violation is returned inside the RunResult, not as an
// error; errors are reserved for infrastructure failures — machine faults,
// exhausted step budgets, cancellation.
func (s *Stack) RunProgram(ctx context.Context, prog *isa.Program, maxSteps uint64) (RunResult, error) {
	return runProgram(ctx, s.Machine, prog, maxSteps)
}

// runProgram is RunProgram on machine m, for the Stack and the Reference.
func runProgram(ctx context.Context, m *vm.CPU, prog *isa.Program, maxSteps uint64) (RunResult, error) {
	m.Load(prog)
	steps, err := m.Run(ctx, maxSteps)
	res := RunResult{ExitCode: m.ExitCode(), Steps: steps}
	if err != nil {
		var v dift.Violation
		if errors.As(err, &v) {
			res.Violation = &v
			return res, nil
		}
	}
	return res, err
}
