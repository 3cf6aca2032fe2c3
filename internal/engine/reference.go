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
// running every instruction through Step and the dift engine's Commit, with
// no coarse filter, no fast loop and no backend in the loop. It is the ground
// truth side of a differential run — LATCH's correctness argument (§4,
// §6.2) is that every backend, coarse filter and fast path included, is
// observationally equivalent to exactly this configuration. The machine
// sees the engine only through vm.Tracker's methods, so vm.CPU.Run never
// enters its fast loop; Engine is the engine itself.
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
	m.SetTracker(stepOnly{eng})
	return &Reference{Machine: m, Engine: eng, Shadow: sh}, nil
}

// stepOnly carries only vm.Tracker's methods, hiding the engine's fast-path
// methods (vm.FastTracker, vm.TaintRegFile) from the machine.
type stepOnly struct{ vm.Tracker }

// RunProgram loads prog and executes up to maxSteps instructions under the
// contract of Stack.RunProgram: a policy violation is returned inside the
// RunResult, so the two sides of a differential run read it the same way.
// Cancellation follows vm.CPU.Run: polled every vm.CancelCheckInterval
// instructions.
func (r *Reference) RunProgram(ctx context.Context, prog *isa.Program, maxSteps uint64) (RunResult, error) {
	return runProgram(ctx, r.Machine, prog, maxSteps)
}
