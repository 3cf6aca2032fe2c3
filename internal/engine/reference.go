package engine

import (
	"context"

	"latch/internal/dift"
	"latch/internal/isa"
	"latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/vm"
)

// Reference is the conventional byte-precise DIFT stack: the LA32 machine
// with the dift engine attached directly as its tracker, no coarse filter
// and no backend in the loop. It is the ground truth side of a differential
// run — LATCH's correctness argument (§4, §6.2) is that every backend,
// coarse filter included, is observationally equivalent to exactly this
// configuration.
type Reference struct {
	Machine *vm.CPU
	Engine  *dift.Engine
	Shadow  *shadow.Shadow
}

// NewReference builds the reference stack under pol, with the paper-default
// domain geometry so its shadow bookkeeping (domain/page counters) is
// directly comparable to a backend session's.
func NewReference(pol policy.Policy) (*Reference, error) {
	sh, err := shadow.New(latch.DefaultConfig().DomainSize)
	if err != nil {
		return nil, err
	}
	eng := dift.NewEngine(sh, pol)
	m := vm.New()
	m.SetTracker(eng)
	return &Reference{Machine: m, Engine: eng, Shadow: sh}, nil
}

// RunProgram loads prog and executes up to maxSteps instructions, returning
// the machine's exit code. A policy violation (or machine fault) surfaces as
// the error, exactly as it does on the co-simulated side. Cancellation
// follows vm.CPU.Run: polled every vm.CancelCheckInterval instructions.
func (r *Reference) RunProgram(ctx context.Context, prog *isa.Program, maxSteps uint64) (uint32, error) {
	r.Machine.Load(prog)
	if _, err := r.Machine.Run(ctx, maxSteps); err != nil {
		return 0, err
	}
	return r.Machine.ExitCode(), nil
}
