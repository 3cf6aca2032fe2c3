// Package cosim executes real LA32 programs under the LATCH integrations,
// with the byte-precise DIFT engine running alongside as ground truth.
//
// Its one machine, Monitor, runs any registered engine backend over a
// program's commit stream. Each committed instruction becomes the
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
// The two-core P-LATCH machine (§5.2) is platch.Parallel. Monitor commits
// every instruction synchronously; Parallel's monitor lags, writing the
// shadow only as it replays the log, so it lives with the other P-LATCH
// machines and their shared parameters.
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
	"latch/internal/latch"
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
type Monitor struct {
	Machine *vm.CPU
	Engine  *dift.Engine
	Module  *latch.Module
	Session *engine.Session

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
	sess, err := engine.NewSession(b.Config())
	if err != nil {
		return nil, err
	}
	sess.AttachObserver(obs)
	sess.Profile.LibdftSlowdown = swSlowdown
	m := &Monitor{
		Engine:  dift.NewEngine(sess.Shadow, pol),
		Module:  sess.Module,
		Session: sess,
		backend: b,
	}
	if err := b.Init(sess); err != nil {
		return nil, err
	}
	m.Engine.SetObserver(obs)
	m.Machine = vm.New()
	m.Machine.SetTracker(m)
	m.Machine.SetObserver(obs)
	return m, nil
}

// Run assembles src, loads it, and executes up to maxSteps instructions.
func (m *Monitor) Run(ctx context.Context, src string, maxSteps uint64) (uint32, error) {
	prog, err := isa.Assemble(src)
	if err != nil {
		return 0, err
	}
	return m.RunProgram(ctx, prog, maxSteps)
}

// RunProgram loads an already-assembled program and executes up to maxSteps
// instructions. The differential checker uses this entry point: generated
// programs exist as instruction slices, not assembly source.
func (m *Monitor) RunProgram(ctx context.Context, prog *isa.Program, maxSteps uint64) (uint32, error) {
	m.Machine.Load(prog)
	if _, err := m.Machine.Run(ctx, maxSteps); err != nil {
		return 0, err
	}
	return m.Machine.ExitCode(), nil
}

// Result finalizes the backend over the session.
func (m *Monitor) Result() engine.Result {
	return m.backend.Finish(m.Session)
}

// --- vm.Tracker ---

// Touches delegates the ground-truth predicate to the precise engine. The VM
// does not call it: Commit asks the engine directly for each event's
// Tainted flag.
func (m *Monitor) Touches(in isa.Instr, addr uint32) bool {
	return m.Engine.Touches(in, addr)
}

// IndirectTarget enforces the control-flow policy synchronously through the
// precise engine; the backend under test only sees the event stream.
func (m *Monitor) IndirectTarget(pc uint32, reg int, target uint32) error {
	return m.Engine.IndirectTarget(pc, reg, target)
}

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

// Input forwards taint initialization to the engine (coarse state follows
// through the shadow watchers).
func (m *Monitor) Input(addr uint32, n int, source dift.InputSource, conn int) {
	m.Engine.Input(addr, n, source, conn)
}

// Output forwards sink checks.
func (m *Monitor) Output(pc uint32, addr uint32, n int) error {
	return m.Engine.Output(pc, addr, n)
}

// Accept forwards connection registration.
func (m *Monitor) Accept() int { return m.Engine.Accept() }

// SetTaintByte forwards stnt, write-through included.
func (m *Monitor) SetTaintByte(addr uint32, tag shadow.Tag) {
	m.Module.StoreTaint(addr, tag)
}

// SetRegTaintMask forwards strf.
func (m *Monitor) SetRegTaintMask(mask uint32, tag shadow.Tag) {
	m.Engine.SetRegTaintMask(mask, tag)
}
