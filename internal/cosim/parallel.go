package cosim

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

// ParallelConfig parameterizes the P-LATCH two-core co-simulation.
type ParallelConfig struct {
	Latch latch.Config

	// QueueDepth is the shared log FIFO capacity in entries.
	QueueDepth int

	// ServiceCycles is the monitor's cost to analyze one log entry (the
	// LBA software handler; 3.38 reproduces the baseline's 3.38x).
	ServiceCycles float64

	// Filtered selects P-LATCH (enqueue only coarse positives) versus the
	// baseline LBA (enqueue everything).
	Filtered bool

	// PendingEntries sizes the §5.2 pending-update FIFO protecting against
	// outstanding-CTT-update false negatives.
	PendingEntries int

	// Observer, when non-nil, receives the co-simulation's telemetry:
	// module check-path events, the monitor's deferred violations,
	// taint-source bytes, and a QueueStall per full-FIFO stall of the
	// monitored core. Observers never affect results.
	Observer telemetry.Observer
}

// DefaultParallelConfig returns the paper's two-core parameters with
// filtering enabled.
func DefaultParallelConfig() ParallelConfig {
	lc := latch.DefaultConfig()
	lc.Clear = latch.EagerClear
	lc.BaselineTCache = false
	return ParallelConfig{
		Latch:          lc,
		QueueDepth:     1024,
		ServiceCycles:  3.38,
		Filtered:       true,
		PendingEntries: 64,
	}
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

// ParallelStats is the two-core outcome.
type ParallelStats struct {
	Instructions   uint64
	Enqueued       uint64
	PendingExtra   uint64 // enqueues forced by the pending-update FIFO
	StallCycles    uint64 // monitored-core cycles lost to a full queue
	DrainCycles    uint64 // cycles spent draining at sync points
	MonitoredCycle uint64 // total monitored-core cycles (instr + stalls)
	MaxQueueDepth  int
}

// Overhead returns the monitored core's overhead over native execution.
func (s ParallelStats) Overhead() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.MonitoredCycle)/float64(s.Instructions) - 1
}

// logEntry is one committed instruction shipped to the monitor.
type logEntry struct {
	pc      uint32
	in      isa.Instr
	addr    uint32
	instret uint64
}

// Parallel is the P-LATCH two-core co-simulated machine: the monitored
// core executes the program natively with the LATCH module deciding which
// committed instructions enter the shared log; the monitor core replays
// the log through a byte-precise DIFT engine at its own service rate.
// Violations are therefore detected with a lag; output syscalls and
// program exit act as sync points that drain the log first.
type Parallel struct {
	Machine *vm.CPU
	Engine  *dift.Engine // the monitor's engine (owns the shadow)
	Module  *latch.Module
	Shadow  *shadow.Shadow

	cfg  ParallelConfig
	pend *pendingRing

	queue         []logEntry
	monitorBudget float64

	stats      ParallelStats
	violations []DeferredViolation
}

// pendingRing mirrors platch's pending-update FIFO for the co-simulation.
type pendingRing struct {
	ring    []uint32
	head    int
	count   int
	domains map[uint32]int
}

func newPendingRing(capacity int) *pendingRing {
	if capacity <= 0 {
		return nil
	}
	return &pendingRing{ring: make([]uint32, capacity), domains: make(map[uint32]int)}
}

func (p *pendingRing) full() bool { return p.count == len(p.ring) }

func (p *pendingRing) push(domain uint32) {
	if p.full() {
		p.pop() // callers stall before this can drop a live entry
	}
	p.ring[(p.head+p.count)%len(p.ring)] = domain
	p.count++
	p.domains[domain]++
}

func (p *pendingRing) pop() {
	if p.count == 0 {
		return
	}
	d := p.ring[p.head]
	p.head = (p.head + 1) % len(p.ring)
	p.count--
	if n := p.domains[d]; n <= 1 {
		delete(p.domains, d)
	} else {
		p.domains[d] = n - 1
	}
}

func (p *pendingRing) pending(domain uint32) bool {
	_, ok := p.domains[domain]
	return ok
}

// NewParallel builds the two-core machine with the given DIFT policy. The
// monitor's engine never fails fast: violations are recorded with their
// detection lag and surfaced through Violations().
func NewParallel(cfg ParallelConfig, pol policy.Policy) (*Parallel, error) {
	if cfg.QueueDepth <= 0 {
		return nil, fmt.Errorf("cosim: queue depth %d must be positive", cfg.QueueDepth)
	}
	if cfg.ServiceCycles < 1 {
		return nil, fmt.Errorf("cosim: service cycles %v < 1", cfg.ServiceCycles)
	}
	sess, err := engine.NewSession(cfg.Latch)
	if err != nil {
		return nil, err
	}
	sess.AttachObserver(cfg.Observer)
	pol.FailFast = false // deferred detection: record, then surface
	p := &Parallel{
		Engine: dift.NewEngine(sess.Shadow, pol),
		Module: sess.Module,
		Shadow: sess.Shadow,
		cfg:    cfg,
		pend:   newPendingRing(cfg.PendingEntries),
		queue:  make([]logEntry, 0, cfg.QueueDepth),
	}
	p.Engine.SetObserver(cfg.Observer)
	p.Machine = vm.New()
	p.Machine.SetTracker(p)
	p.Machine.SetObserver(cfg.Observer)
	return p, nil
}

// Stats returns the two-core accounting.
func (p *Parallel) Stats() ParallelStats { return p.stats }

// Violations returns the monitor's deferred detections.
func (p *Parallel) Violations() []DeferredViolation { return p.violations }

// Run assembles src, executes it, and drains the monitor at exit.
func (p *Parallel) Run(ctx context.Context, src string, maxSteps uint64) (uint32, error) {
	prog, err := isa.Assemble(src)
	if err != nil {
		return 0, err
	}
	p.Machine.Load(prog)
	if _, err := p.Machine.Run(ctx, maxSteps); err != nil {
		return 0, err
	}
	p.drain()
	return p.Machine.ExitCode(), nil
}

// processOne replays the oldest log entry through the monitor's engine.
func (p *Parallel) processOne() {
	e := p.queue[0]
	p.queue = p.queue[1:]
	// The processed store's coarse update is now visible: the monitored
	// core's matching pending-FIFO entry retires (§5.2's pop signal).
	if e.in.WritesMem() && p.pend != nil {
		p.pend.pop()
	}
	before := len(p.Engine.Violations())
	if e.in.Op.Class() == isa.ClassJumpInd {
		// The monitor validates the (already taken) transfer.
		_ = p.Engine.IndirectTarget(e.pc, int(e.in.Rs1), 0)
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
	for len(p.queue) > 0 && p.monitorBudget >= p.cfg.ServiceCycles {
		p.monitorBudget -= p.cfg.ServiceCycles
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
		wait := p.cfg.ServiceCycles
		p.stats.DrainCycles += uint64(wait)
		p.stats.MonitoredCycle += uint64(wait)
		p.tick(wait)
	}
}

// --- vm.Tracker ---

// Touches: the monitored core has no precise state of its own; ground
// truth lives with the monitor. Events report untainted.
func (p *Parallel) Touches(isa.Instr, uint32) bool { return false }

// IndirectTarget performs no synchronous check: log-based monitoring
// validates control transfers after the fact.
func (p *Parallel) IndirectTarget(uint32, int, uint32) error { return nil }

// Commit runs the monitored core's per-instruction work: coarse filtering
// and enqueueing.
func (p *Parallel) Commit(pc uint32, in isa.Instr, addr uint32) error {
	p.stats.Instructions++
	p.stats.MonitoredCycle++
	p.tick(1)

	// The hardware filter: TRF bits for register sources (maintained
	// synchronously by the monitored core — the monitor's own register
	// state lags and cannot be consulted in time), the coarse stack for
	// memory operands, and the pending-update FIFO for outstanding stores.
	var memPositive bool
	if in.ReadsMem() || in.WritesMem() {
		res := p.Module.CheckMem(addr, in.Op.MemSize())
		memPositive = res.CoarsePositive
		if !memPositive && p.pend != nil && p.pend.pending(p.Shadow.DomainIndex(addr)) {
			memPositive = true
			p.stats.PendingExtra++
		}
	}
	enq := !p.cfg.Filtered || memPositive || p.trfSourceTainted(in)
	p.updateTRF(in, memPositive)
	if !enq {
		return nil
	}

	// A full log queue — or, for stores, a full pending-update FIFO —
	// stalls the monitored core at the monitor's service rate.
	for len(p.queue) >= p.cfg.QueueDepth ||
		(in.WritesMem() && p.pend != nil && p.pend.full() && len(p.queue) > 0) {
		if p.cfg.Observer != nil {
			p.cfg.Observer.QueueStall(len(p.queue))
		}
		p.stats.StallCycles += uint64(p.cfg.ServiceCycles)
		p.stats.MonitoredCycle += uint64(p.cfg.ServiceCycles)
		p.tick(p.cfg.ServiceCycles)
	}
	p.queue = append(p.queue, logEntry{pc: pc, in: in, addr: addr, instret: p.Machine.Instret()})
	if len(p.queue) > p.stats.MaxQueueDepth {
		p.stats.MaxQueueDepth = len(p.queue)
	}
	p.stats.Enqueued++
	if in.WritesMem() && p.pend != nil {
		p.pend.push(p.Shadow.DomainIndex(addr))
	}
	return nil
}

// trfSourceTainted consults the hardware taint register file for the
// instruction's register sources (for stores, the data register).
func (p *Parallel) trfSourceTainted(in isa.Instr) bool {
	trf := p.Module.TRF()
	switch in.Op.Class() {
	case isa.ClassMove, isa.ClassALUImm, isa.ClassJumpInd:
		return trf.Tainted(int(in.Rs1))
	case isa.ClassALU2:
		return trf.Tainted(int(in.Rs1)) || trf.Tainted(int(in.Rs2))
	case isa.ClassBranch, isa.ClassStore:
		return trf.Tainted(int(in.Rd)) || (in.Op.Class() == isa.ClassBranch && trf.Tainted(int(in.Rs1)))
	}
	return false
}

// updateTRF is the monitored core's synchronous single-bit register taint
// propagation: loads adopt the coarse verdict for their address (a
// conservative over-approximation that the hardware can compute without
// waiting for the monitor), everything else follows the union rules.
func (p *Parallel) updateTRF(in isa.Instr, memPositive bool) {
	trf := p.Module.TRF()
	switch in.Op.Class() {
	case isa.ClassMove:
		trf.Set(int(in.Rd), trf.Get(int(in.Rs1)))
	case isa.ClassImm:
		trf.Set(int(in.Rd), shadow.TagClean)
	case isa.ClassALU2:
		if in.Op == isa.XOR && in.Rs1 == in.Rs2 {
			trf.Set(int(in.Rd), shadow.TagClean)
			break
		}
		trf.Set(int(in.Rd), trf.Get(int(in.Rs1))|trf.Get(int(in.Rs2)))
	case isa.ClassALUImm:
		trf.Set(int(in.Rd), trf.Get(int(in.Rs1)))
	case isa.ClassLoad:
		if memPositive {
			trf.Set(int(in.Rd), shadow.MustLabel(0))
		} else {
			trf.Set(int(in.Rd), shadow.TagClean)
		}
	case isa.ClassJump, isa.ClassJumpInd:
		if in.Op == isa.CALL || in.Op == isa.CALLR {
			trf.Set(isa.RegLR, shadow.TagClean)
		}
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

// SetRegTaintMask forwards strf.
func (p *Parallel) SetRegTaintMask(mask uint32, tag shadow.Tag) {
	p.Engine.SetRegTaintMask(mask, tag)
}
