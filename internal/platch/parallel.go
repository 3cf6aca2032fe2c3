package platch

import (
	"context"
	"fmt"

	"latch/internal/dift"
	"latch/internal/engine"
	"latch/internal/isa"
	"latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/telemetry"
	"latch/internal/vm"
)

// ParallelConfig parameterizes the P-LATCH two-core co-simulation. The
// module geometry, the monitor's service rate and the pending-update FIFO
// are the paper's, shared with the analytic backends.
type ParallelConfig struct {
	// QueueDepth is the shared log FIFO capacity in entries.
	QueueDepth int

	// Filtered selects P-LATCH (enqueue only coarse positives) versus the
	// baseline LBA (enqueue everything).
	Filtered bool

	// Observer, when non-nil, receives the co-simulation's telemetry:
	// module check-path events, the monitor's deferred violations,
	// taint-source bytes, and a QueueStall per full-FIFO stall of the
	// monitored core. Observers never affect results.
	Observer telemetry.Observer
}

// DefaultParallelConfig returns the paper's two-core parameters with
// filtering enabled.
func DefaultParallelConfig() ParallelConfig {
	return ParallelConfig{QueueDepth: logEntries, Filtered: true}
}

// DeferredViolation is a policy violation detected by the lagging monitor.
type DeferredViolation struct {
	Violation dift.Violation
	// IssuedAt is the monitored core's instruction count when the
	// offending instruction committed; DetectedAt when the monitor reached
	// it. The difference is the detection lag inherent to log-based
	// monitoring ([6]).
	IssuedAt   uint64
	DetectedAt uint64
}

// Lag returns the detection lag in monitored instructions.
func (d DeferredViolation) Lag() uint64 { return d.DetectedAt - d.IssuedAt }

// ParallelStats is the two-core outcome. Stalls and drains are charged at
// the monitor's exact, fractional service rate.
type ParallelStats struct {
	Instructions   uint64
	Enqueued       uint64
	PendingExtra   uint64  // enqueues forced by the pending-update FIFO
	StallCycles    float64 // monitored-core cycles lost to a full queue
	DrainCycles    float64 // cycles spent draining at sync points
	MonitoredCycle float64 // total monitored-core cycles (instr + stalls)
	MaxQueueDepth  int
}

// Overhead returns the monitored core's overhead over native execution.
func (s ParallelStats) Overhead() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return s.MonitoredCycle/float64(s.Instructions) - 1
}

// logEntry is one committed instruction shipped to the monitor. For an
// indirect jump, arg is the transfer target the monitor's control-flow
// check reports; for strf, arg and tag are the register mask and tag the
// monitor applies. Other entries ignore both.
type logEntry struct {
	pc      uint32
	in      isa.Instr
	addr    uint32
	arg     uint32
	tag     shadow.Tag
	instret uint64
}

// Parallel is the P-LATCH two-core co-simulated machine: the monitored
// core executes the program natively with the LATCH module deciding which
// committed instructions enter the shared log; the monitor core replays
// the log through a byte-precise DIFT engine at its own service rate.
// Violations are therefore detected with a lag; output syscalls and
// program exit act as sync points that drain the log first.
//
// The machine, the monitor's engine, the module and the shadow are those of
// an engine.Stack, with the Parallel as the machine's tracker. A Parallel
// serves one program: the stack is not reset under it, since a reset would
// drop the Parallel as tracker and keep its log.
type Parallel struct {
	Machine *vm.CPU
	Engine  *dift.Engine // the monitor's engine (owns the shadow)
	Module  *latch.Module
	Shadow  *shadow.Shadow

	stack   *engine.Stack
	cfg     ParallelConfig
	service float64 // monitor cycles per log entry
	pend    *pendingFIFO
	// trf is the monitored core's TRF, bit r for register r, kept in step
	// with commit: the monitor's own register state lags.
	trf uint16
	// arg and tag are what Commit's next log entry carries: an indirect
	// jump's target, or strf's mask and tag.
	arg uint32
	tag shadow.Tag

	queue         []logEntry
	monitorBudget float64

	stats      ParallelStats
	violations []DeferredViolation
}

// NewParallel builds the two-core machine with the given DIFT policy. The
// monitor's engine never fails fast: violations are recorded with their
// detection lag and surfaced through Violations().
func NewParallel(cfg ParallelConfig, pol policy.Policy) (*Parallel, error) {
	if cfg.QueueDepth <= 0 {
		return nil, fmt.Errorf("platch: queue depth %d must be positive", cfg.QueueDepth)
	}
	pol.FailFast = false // deferred detection: record, then surface
	st, _, err := engine.NewStack(moduleConfig(), pol, cfg.Observer)
	if err != nil {
		return nil, err
	}
	p := &Parallel{
		Machine: st.Machine,
		Engine:  st.Engine,
		Module:  st.Module,
		Shadow:  st.Shadow,
		stack:   st,
		cfg:     cfg,
		service: serviceCycles(simpleLBAOverhead),
		pend:    newPendingFIFO(pendingEntries),
		queue:   make([]logEntry, 0, cfg.QueueDepth),
	}
	p.Machine.SetTracker(p)
	return p, nil
}

// Stats returns the two-core accounting.
func (p *Parallel) Stats() ParallelStats { return p.stats }

// Violations returns the monitor's deferred detections.
func (p *Parallel) Violations() []DeferredViolation { return p.violations }

// Run assembles src, executes it (engine.Stack.Run), and drains the monitor
// when the machine stops. A fault is a sync point like exit: the log is
// drained before the fault is returned, so violations the lagging monitor
// had not reached yet are still reported. A violation surfaced at an output
// sync point stops the machine and is returned in the RunResult.
func (p *Parallel) Run(ctx context.Context, src string, maxSteps uint64) (engine.RunResult, error) {
	res, err := p.stack.Run(ctx, src, maxSteps)
	p.drain()
	return res, err
}

// processOne replays the oldest log entry through the monitor's engine.
func (p *Parallel) processOne() {
	e := p.queue[0]
	p.queue = p.queue[1:]
	// The processed store's coarse update is now visible: the monitored
	// core's matching pending-FIFO entry retires (§5.2's pop signal).
	if e.in.WritesMem() {
		p.pend.pop()
	}
	before := len(p.Engine.Violations())
	switch {
	case e.in.Op.Class() == isa.ClassJumpInd:
		// The monitor validates the (already taken) transfer.
		_ = p.Engine.IndirectTarget(e.pc, int(e.in.Rs1), e.arg)
	case e.in.Op == isa.STRF:
		// strf reaches the monitor's registers in log order, after the
		// entries logged before it.
		p.Engine.SetRegTaintMask(e.arg, e.tag)
	}
	_ = p.Engine.Commit(e.pc, e.in, e.addr)
	for _, v := range p.Engine.Violations()[before:] {
		p.violations = append(p.violations, DeferredViolation{
			Violation:  v,
			IssuedAt:   e.instret,
			DetectedAt: p.Machine.Instret(),
		})
	}
}

// tick advances the monitor by the given monitored-core cycles.
func (p *Parallel) tick(cycles float64) {
	p.monitorBudget += cycles
	for len(p.queue) > 0 && p.monitorBudget >= p.service {
		p.monitorBudget -= p.service
		p.processOne()
	}
	if len(p.queue) == 0 && p.monitorBudget > 0 {
		p.monitorBudget = 0 // an idle monitor banks no work
	}
}

// drain forces the monitor to catch up (a sync point), charging the
// monitored core for the wait.
func (p *Parallel) drain() {
	for len(p.queue) > 0 {
		p.stats.DrainCycles += p.service
		p.stats.MonitoredCycle += p.service
		p.tick(p.service)
	}
}

// --- vm.Tracker ---

// Touches: the monitored core has no precise state of its own; ground
// truth lives with the monitor, so it reports untainted. The VM does not
// call it.
func (p *Parallel) Touches(isa.Instr, uint32) bool { return false }

// IndirectTarget performs no synchronous check: log-based monitoring
// validates control transfers after the fact. It keeps the target for the
// log entry Commit ships next.
func (p *Parallel) IndirectTarget(_ uint32, _ int, target uint32) error {
	p.arg = target
	return nil
}

// Commit runs the monitored core's per-instruction work: coarse filtering
// and enqueueing.
func (p *Parallel) Commit(pc uint32, in isa.Instr, addr uint32) error {
	p.stats.Instructions++
	p.stats.MonitoredCycle++
	p.tick(1)

	// The hardware filter: TRF bits for register sources, the coarse stack
	// for memory operands, and the pending-update FIFO for outstanding
	// stores. strf always ships, so the monitor applies it in log order.
	var memPositive bool
	if in.ReadsMem() || in.WritesMem() {
		res := p.Module.CheckMem(addr, in.Op.MemSize())
		memPositive = res.CoarsePositive
		if !memPositive && p.pend.pending(p.Shadow.DomainIndex(addr)) {
			memPositive = true
			p.stats.PendingExtra++
		}
	}
	enq := !p.cfg.Filtered || memPositive || p.trf&dift.RegReads(in) != 0 || in.Op == isa.STRF
	p.updateTRF(in, memPositive)
	if !enq {
		return nil
	}

	// A full log queue — or, for stores, a full pending-update FIFO —
	// stalls the monitored core at the monitor's service rate.
	for len(p.queue) >= p.cfg.QueueDepth ||
		(in.WritesMem() && p.pend.full() && len(p.queue) > 0) {
		if p.cfg.Observer != nil {
			p.cfg.Observer.QueueStall(len(p.queue))
		}
		p.stats.StallCycles += p.service
		p.stats.MonitoredCycle += p.service
		p.tick(p.service)
	}
	p.queue = append(p.queue, logEntry{pc: pc, in: in, addr: addr, arg: p.arg, tag: p.tag, instret: p.Machine.Instret()})
	if len(p.queue) > p.stats.MaxQueueDepth {
		p.stats.MaxQueueDepth = len(p.queue)
	}
	p.stats.Enqueued++
	if in.WritesMem() {
		// No expiry: the entry pops when the monitor processes the store.
		p.pend.push(p.Shadow.DomainIndex(addr), 0)
	}
	return nil
}

// updateTRF is the monitored core's synchronous single-bit register taint
// propagation over dift's write set: a load adopts the coarse verdict for
// its address (a conservative over-approximation that the hardware can
// compute without waiting for the monitor); move, ALU and ALU-immediate
// results are tainted when a register they read is, except xor-with-self;
// every other register write is clean.
func (p *Parallel) updateTRF(in isa.Instr, memPositive bool) {
	var tainted bool
	switch in.Op.Class() {
	case isa.ClassLoad:
		tainted = memPositive
	case isa.ClassMove, isa.ClassALU2, isa.ClassALUImm:
		tainted = p.trf&dift.RegReads(in) != 0 && !(in.Op == isa.XOR && in.Rs1 == in.Rs2)
	}
	w := dift.RegWrites(in)
	p.trf &^= w
	if tainted {
		p.trf |= w
	}
}

// Input applies taint synchronously: the hardware taints source data as it
// is delivered, so the coarse state never lags taint creation from
// syscalls.
func (p *Parallel) Input(addr uint32, n int, source dift.InputSource, conn int) {
	p.Engine.Input(addr, n, source, conn)
}

// Output is a sync point: the monitor drains before externally visible
// effects, bounding the damage window of deferred detection.
func (p *Parallel) Output(pc uint32, addr uint32, n int) error {
	p.drain()
	if len(p.violations) > 0 {
		// Surface the earliest deferred violation before data leaves.
		return p.violations[0].Violation
	}
	// The engine records rather than fails fast; leak checks at the sync
	// point are synchronous, so surface them immediately.
	before := len(p.Engine.Violations())
	_ = p.Engine.Output(pc, addr, n)
	if vs := p.Engine.Violations(); len(vs) > before {
		v := vs[len(vs)-1]
		now := p.Machine.Instret()
		p.violations = append(p.violations, DeferredViolation{Violation: v, IssuedAt: now, DetectedAt: now})
		return v
	}
	return nil
}

// Accept forwards connection registration.
func (p *Parallel) Accept() int { return p.Engine.Accept() }

// SetTaintByte forwards stnt through the module (synchronous write-through).
func (p *Parallel) SetTaintByte(addr uint32, tag shadow.Tag) {
	p.Module.StoreTaint(addr, tag)
}

// SetRegTaintMask rewrites the monitored core's TRF at once (strf) and
// keeps the mask and tag for the log entry Commit ships next: the monitor
// applies them when it reaches that entry, after the entries before it.
func (p *Parallel) SetRegTaintMask(mask uint32, tag shadow.Tag) {
	p.trf = 0
	if tag != shadow.TagClean {
		p.trf = uint16(mask)
	}
	p.arg, p.tag = mask, tag
}
