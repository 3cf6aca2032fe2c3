// Package cosim executes real LA32 programs under the LATCH integrations,
// with the byte-precise DIFT engine running alongside as ground truth.
//
// Its one machine, Monitor, runs any registered engine backend over a
// program's commit stream. It is built on an engine.Stack (the machine, the
// precise engine, and a Session's module and shadow: the stack latch.System
// is), with the Monitor as the machine's tracker, so its own code is only
// the backend step. Each committed instruction becomes the
// trace.Event the calibrated generators emit, with the precise engine's
// verdict in its Tainted flag, and the backend steps it through a shared
// engine.Session. With the "slatch" backend this is the cycle-accounted
// S-LATCH co-simulation (§5.1, Figure 9): hardware mode checks memory
// operands against the coarse taint state and register operands through the
// Tainted flag (the TRF check), a confirmed trap moves execution to the
// modeled instrumented image, and the 1000-instruction timeout moves it
// back. The two-mode protocol and its cost constants live only in package
// slatch and the engine's epoch machine.
//
// The two-core P-LATCH machine (§5.2) is platch.Parallel, built on the same
// stack. Monitor commits every instruction synchronously; Parallel's
// monitor lags, writing the shadow only as it replays the log, so it lives
// with the other P-LATCH machines and their shared parameters. Neither is a
// vm.FastTracker: the machine under a co-simulation never enters the fast
// loop, so the tracker sees every commit.
//
// Soundness argument mirrored from the paper: in S-LATCH hardware mode no
// instruction with a tainted source operand executes un-trapped (tainted
// registers are visible in the TRF, which Monitor models with the precise
// Tainted flag; tainted memory is visible in the coarse state, which has no
// false negatives), so native execution can only *clear* taint, never move
// it. Taint creation (syscall input) writes the shadow directly and reaches
// the coarse state through the module's watchers before any dependent
// instruction commits.
package cosim

import (
	"context"

	"latch/internal/dift"
	"latch/internal/engine"
	"latch/internal/isa"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/vm"
)

// Monitor runs any registered engine backend over a real program's commit
// stream: the VM executes the program, the byte-precise DIFT engine
// propagates taint (and enforces the policy) as ground truth, and every
// committed instruction is translated into the same trace.Event record the
// calibrated generators emit and fed to the backend through a shared
// engine.Session. Equivalence checks can therefore compare any backend's
// view of a program against the conventional engine's on identical inputs,
// and NewMonitor("slatch", ...) is the S-LATCH co-simulation.
//
// The machine and the engine are those of an engine.Stack, with the
// Monitor as the machine's tracker. A Monitor serves one program: the stack
// is not reset under it, since a reset would drop the Monitor as tracker
// and keep the backend's state.
type Monitor struct {
	// Tracker is the engine seen only through vm.Tracker's methods, which
	// the Monitor passes on unchanged but for Commit and SetTaintByte. As
	// in engine.Reference, the engine's fast-path methods (vm.FastTracker)
	// stay hidden, so the machine commits every instruction through the
	// backend step.
	vm.Tracker
	Machine *vm.CPU
	Engine  *dift.Engine
	Session *engine.Session

	stack   *engine.Stack
	backend engine.Backend
}

var _ vm.Tracker = (*Monitor)(nil)

// swSlowdown is the instrumented image's slowdown over native execution
// assumed for program-driven runs, which carry no calibrated profile: the
// software-mode cost S-LATCH charges per instruction.
const swSlowdown = 5

// NewMonitor builds a co-simulated machine around the named registered
// backend in its paper-default configuration.
func NewMonitor(backendName string, pol policy.Policy, obs telemetry.Observer) (*Monitor, error) {
	sch, err := engine.Lookup(backendName)
	if err != nil {
		return nil, err
	}
	b := sch.New()
	st, sess, err := engine.NewStack(b.Config(), pol, obs)
	if err != nil {
		return nil, err
	}
	sess.Profile.LibdftSlowdown = swSlowdown
	if err := b.Init(sess); err != nil {
		return nil, err
	}
	m := &Monitor{Tracker: st.Engine, Machine: st.Machine, Engine: st.Engine, Session: sess, stack: st, backend: b}
	m.Machine.SetTracker(m)
	return m, nil
}

// Run assembles src, loads it, and executes up to maxSteps instructions
// (engine.Stack.Run).
func (m *Monitor) Run(ctx context.Context, src string, maxSteps uint64) (engine.RunResult, error) {
	return m.stack.Run(ctx, src, maxSteps)
}

// RunProgram loads an already-assembled program and executes up to maxSteps
// instructions (engine.Stack.RunProgram): a policy violation is returned in
// the RunResult, as the Reference returns it. The differential checker uses
// this entry point: generated programs exist as instruction slices, not
// assembly source.
func (m *Monitor) RunProgram(ctx context.Context, prog *isa.Program, maxSteps uint64) (engine.RunResult, error) {
	return m.stack.RunProgram(ctx, prog, maxSteps)
}

// Result finalizes the backend over the session.
func (m *Monitor) Result() engine.Result {
	return m.backend.Finish(m.Session)
}

// --- vm.Tracker ---

// Commit translates the committed instruction into a trace event, steps the
// backend, then lets the precise engine propagate.
func (m *Monitor) Commit(pc uint32, in isa.Instr, addr uint32) error {
	ss := m.Session
	ss.Events++
	ev := trace.Event{
		Seq:     ss.Events,
		PC:      pc,
		IsMem:   in.ReadsMem() || in.WritesMem(),
		IsWrite: in.WritesMem(),
		Tainted: m.Engine.Touches(in, addr),
	}
	if ev.IsMem {
		ev.Addr = addr
		ev.Size = uint8(in.Op.MemSize())
	}
	m.backend.Step(ss, ev)
	return m.Engine.Commit(pc, in, addr)
}

// SetTaintByte forwards stnt through the module, write-through included.
func (m *Monitor) SetTaintByte(addr uint32, tag shadow.Tag) {
	m.Session.Module.StoreTaint(addr, tag)
}
