// Package vm implements the LA32 virtual machine: the deterministic
// interpreter that stands in for the paper's Pin-instrumented x86 host. It
// executes assembled programs over sparse memory, exposes the per-committed-
// instruction operand stream that LATCH's extraction logic consumes, routes
// external input through syscall-level taint sources (file reads, socket
// receives, per-connection accepts), and lets an attached Tracker — normally
// the precise DIFT engine — propagate taint and enforce data-use policies.
package vm

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"latch/internal/dift"
	"latch/internal/isa"
	"latch/internal/mem"
	"latch/internal/shadow"
	"latch/internal/telemetry"
	"latch/internal/trace"
)

// Tracker receives the DIFT-relevant events of execution. *dift.Engine
// implements it; tests may substitute lighter fakes.
type Tracker interface {
	// Touches reports whether the instruction about to execute manipulates
	// tainted data (consulted before execution, for the event stream).
	Touches(in isa.Instr, addr uint32) bool
	// Commit propagates taint after the instruction's semantics executed.
	Commit(pc uint32, in isa.Instr, addr uint32) error
	// IndirectTarget validates an indirect control transfer before it is
	// taken.
	IndirectTarget(pc uint32, reg int, target uint32) error
	// Input records external data written into memory by a syscall.
	Input(addr uint32, n int, source dift.InputSource, conn int)
	// Output validates data leaving through a syscall sink.
	Output(pc uint32, addr uint32, n int) error
	// Accept registers an inbound connection, returning its id.
	Accept() int
	// SetTaintByte implements stnt (Table 5).
	SetTaintByte(addr uint32, tag shadow.Tag)
	// SetRegTaintMask implements strf (Table 5).
	SetRegTaintMask(mask uint32, tag shadow.Tag)
}

var _ Tracker = (*dift.Engine)(nil)

// FastTracker is the optional Tracker extension consulted by Run's
// taint-free fast loop (the interpreter analog of the paper's §5.1 hardware
// fast path). When the tracker proves the current epoch taint-free — no
// register holds taint — Run enters a second interpreter loop that skips
// every per-operand tracker call: Touches cannot be true, Commit cannot move
// taint, and no policy check can fire. Memory accesses are screened against
// the coarse taint state (MemCoarseClean, the TLB-page-taint-bit analog)
// before executing; the first potentially tainted access exits back to the
// full loop, as do indirect jumps, syscalls, taint-state opcodes (strf,
// stnt, ltnt), halts, and self-modifying stores. The skipped per-instruction
// accounting is settled wholesale through CommitClean.
//
// The precise DIFT engine implements it. The co-simulation trackers
// deliberately do not: their per-instruction protocol (trap modeling, module
// statistics) is itself the measurement, so they always take the full loop.
type FastTracker interface {
	Tracker
	// EpochTaintFree reports whether the tracker's register state is
	// entirely clean — the fast loop's entry condition. While it holds and
	// every executed access is coarse-clean, no fast-set instruction can
	// touch or propagate taint.
	EpochTaintFree() bool
	// TaintResident reports whether any memory byte is currently tainted.
	// When false at entry, the fast loop runs unguarded: no instruction in
	// the fast set can create taint, so per-access checks are skipped
	// entirely until the next exit.
	TaintResident() bool
	// MemCoarseClean reports whether [addr, addr+size) is taint-free at the
	// tracker's coarse granularity (n is at most a word, so the span covers
	// at most two pages). A false return exits the fast loop; the full loop
	// then re-executes the access with precise checks.
	MemCoarseClean(addr uint32, size int) bool
	// CommitClean accounts n committed instructions, none of which touched
	// tainted data — the batched replacement for n Commit calls whose only
	// effect would have been counting.
	CommitClean(n uint64)
}

var _ FastTracker = (*dift.Engine)(nil)

// Env supplies the deterministic external world: file bytes for SysRead,
// one buffer per inbound request for SysAccept/SysRecv, and an output sink.
type Env struct {
	FileData []byte   // consumed sequentially by SysRead
	Requests [][]byte // SysAccept opens the next one; SysRecv reads from it

	fileOff int
	reqIdx  int // next request to accept
	curReq  int // index of the currently accepted request, -1 if none
	curOff  int
	curConn int

	Output bytes.Buffer
}

// NewEnv builds an environment.
func NewEnv() *Env { return &Env{curReq: -1, curConn: -1} }

// MaxSysWriteBytes is the most one SysWrite call transfers to the output
// sink — the OS model's pipe capacity. Longer requests are short writes,
// with the transferred count returned in r1 as write(2) would.
const MaxSysWriteBytes = 1 << 16

// Fault describes a machine fault (bad instruction, step limit, ...).
type Fault struct {
	PC     uint32
	Reason string
}

// Error implements error.
func (f Fault) Error() string { return fmt.Sprintf("vm: fault at pc=%#x: %s", f.PC, f.Reason) }

// ErrStepLimit is wrapped in the fault returned when Run exhausts its
// instruction budget.
var ErrStepLimit = errors.New("step limit reached")

// CancelCheckInterval is Run's cancellation granularity in instructions: the
// context is polled every this many committed steps (a power of two, so the
// check is a mask test). A canceled run therefore stops within at most
// CancelCheckInterval instructions of the cancellation, and a background
// context costs the loop nothing beyond the mask test.
const CancelCheckInterval = 4096

// FastRetryInterval is how often (in committed steps, a power of two) Run
// re-evaluates the fast loop's entry condition. Entry attempts cost a
// 16-register taint scan, so they are amortized rather than per-step; a
// taint-handling epoch therefore runs at most this many instructions past
// the point where the registers went clean before the fast loop resumes.
const FastRetryInterval = 64

// EventBatchSize is the capacity of the fast loop's event buffer — the
// commit-stream FIFO depth of the batched hook delivery. The buffer is
// flushed when full and at every fast-loop exit, in one ConsumeBatch call
// when the hook implements trace.BatchSink.
const EventBatchSize = 256

// CPU is the LA32 machine state.
type CPU struct {
	Regs [isa.NumRegs]uint32
	PC   uint32
	Mem  *mem.Memory
	Env  *Env

	tracker Tracker
	hook    trace.Sink
	obs     telemetry.Observer

	// hookBatch is hook's BatchSink view when it implements one (resolved
	// once in SetHook); the fast loop then flushes its event buffer in a
	// single call instead of one Consume per instruction.
	hookBatch trace.BatchSink
	// evbuf is the fast loop's fixed event buffer; evn its fill level. The
	// buffer is flushed when full and at every fast-loop exit, so outside
	// runFast it is always empty and the slow path delivers per event.
	evbuf [EventBatchSize]trace.Event
	evn   int

	// dcache caches decoded instructions by PC so the steady-state fetch
	// path skips both the memory load and the decoder — the interpreter's
	// analog of a DBT code cache. codePages holds the pages with cached
	// code; stores consult it so writes over cached instructions invalidate
	// their decodes (self-modifying-code safety).
	dcache    *isa.DecodeCache
	codePages mem.PageSet

	// reported* track the counter values already flushed to the observer;
	// CacheBatch deltas are emitted at Run boundaries, keeping the per-step
	// path free of interface calls.
	reportedDecodeHits, reportedDecodeMisses uint64
	reportedTLCHits, reportedTLCMisses       uint64

	// Fast-loop lifetime counters (taint-free epoch entries, exits back to
	// the full loop, instructions retired while resident) plus their
	// flushed watermarks.
	fastEntries, fastExits, fastSteps                         uint64
	reportedFastEntries, reportedFastExits, reportedFastSteps uint64

	halted   bool
	exitCode uint32
	instret  uint64
	cycles   uint64

	// lastExceptionAddr backs the ltnt instruction: the S-LATCH exception
	// handler loads the address that triggered the most recent coarse-taint
	// exception (Table 5). The LATCH frontend stores it here.
	lastExceptionAddr uint32
}

// New builds a CPU over fresh memory and environment.
func New() *CPU {
	return &CPU{
		Mem:       mem.New(),
		Env:       NewEnv(),
		dcache:    isa.NewDecodeCache(isa.DefaultDecodeCacheEntries),
		codePages: mem.NewPageSet(),
	}
}

// SetTracker attaches the DIFT tracker (nil detaches).
func (c *CPU) SetTracker(t Tracker) { c.tracker = t }

// SetHook attaches a per-commit event sink (nil detaches). The events carry
// the extraction-logic view: PC, memory operand, and — when a tracker is
// attached — the ground-truth tainted flag. A sink that also implements
// trace.BatchSink receives the fast loop's events in batches (identical
// events, identical order, fewer calls); the full loop always delivers per
// event.
func (c *CPU) SetHook(h trace.Sink) {
	c.hook = h
	c.hookBatch, _ = h.(trace.BatchSink)
}

// SetObserver attaches obs to the CPU: bytes arriving through taint-source
// syscalls (SysRead, SysRecv) are emitted through it, before any policy
// filtering. Nil (the default) disables emission.
func (c *CPU) SetObserver(obs telemetry.Observer) { c.obs = obs }

// SetLastExceptionAddr records the address ltnt will return.
func (c *CPU) SetLastExceptionAddr(addr uint32) { c.lastExceptionAddr = addr }

// Load copies a program image into memory and points the PC at its entry.
// Any previously cached decodes are dropped.
func (c *CPU) Load(p *isa.Program) {
	c.Mem.Write(p.Origin, p.Image)
	c.PC = p.Entry
	c.dcache.Flush()
	c.codePages.Clear()
}

// Reset returns the CPU to its New state — zeroed registers and counters,
// empty memory, an empty decode cache, a fresh Env, and no tracker, hook,
// or observer attached — reusing its memory pages, decode cache, and
// code-page map in place.
func (c *CPU) Reset() {
	c.Mem.Reset()
	c.dcache.Reset()
	c.codePages.Clear()
	*c = CPU{Mem: c.Mem, Env: NewEnv(), dcache: c.dcache, codePages: c.codePages}
}

// DecodeCacheStats returns the decoded-instruction cache's hit and miss
// counts.
func (c *CPU) DecodeCacheStats() (hits, misses uint64) { return c.dcache.Stats() }

// FastLoopStats returns the fast loop's lifetime counters: taint-free epoch
// entries, exits back to the full loop, and instructions retired inside it.
func (c *CPU) FastLoopStats() (entries, exits, steps uint64) {
	return c.fastEntries, c.fastExits, c.fastSteps
}

// Fusions returns the number of superinstructions the decode cache has
// built.
func (c *CPU) Fusions() uint64 { return c.dcache.Fusions() }

// insertDecode caches a decode and stamps the slot with its fast-loop kind,
// so dispatch reads the classification from the already-resident entry. Both
// fill paths (Step and runFast) must go through this helper: an unstamped
// slot reads as fkExit and would pin the fast loop at that PC.
func (c *CPU) insertDecode(pc uint32, in isa.Instr) {
	c.dcache.Insert(pc, in).Aux = fastKinds[in.Op]
}

// noteStore invalidates cached decodes overlapped by a write of n bytes at
// addr. The common case — a store to a page holding no cached code — is two
// loads and a branch per touched page.
func (c *CPU) noteStore(addr uint32, n uint32) {
	if n == 0 || !c.storeHitsCode(addr, n) {
		return
	}
	if end := addr + n - 1; end < addr {
		// Wrapped range: the decode cache's invalidation is interval-based
		// and cannot express it, so drop everything.
		c.dcache.Flush()
	} else {
		c.dcache.InvalidateRange(addr, end)
	}
}

// storeHitsCode reports whether a store of n (>= 1) bytes at addr touches a
// page holding cached decodes — the fast loop's self-modifying-store exit
// test, the detection half of noteStore without the invalidation. The
// store's byte range wraps at 4 GiB (memory does), so the page walk wraps
// as well.
func (c *CPU) storeHitsCode(addr, n uint32) bool {
	first := mem.PageNumber(addr)
	last := mem.PageNumber(addr + n - 1)
	for p := first; ; p = (p + 1) % mem.PageCount {
		if c.codePages.Has(p) {
			return true
		}
		if p == last {
			return false
		}
	}
}

// flushEvents delivers the fast loop's buffered events to the hook: one
// ConsumeBatch when the hook is a BatchSink, a Consume loop otherwise.
func (c *CPU) flushEvents() {
	if c.evn == 0 {
		return
	}
	evs := c.evbuf[:c.evn]
	c.evn = 0
	if c.hookBatch != nil {
		c.hookBatch.ConsumeBatch(evs)
		return
	}
	for i := range evs {
		c.hook.Consume(evs[i])
	}
}

// counterDelta returns cur-last clamped at zero (the underlying counters can
// restart from zero on a stats reset) and advances last.
func counterDelta(cur uint64, last *uint64) uint64 {
	if cur < *last {
		*last = 0
	}
	d := cur - *last
	*last = cur
	return d
}

// FlushCacheStats emits the decode-cache, memory-translation-cache, and
// fast-loop counter deltas accumulated since the last flush through the
// observer. Run calls it on every return; drivers stepping the CPU manually
// can call it at their own boundaries.
func (c *CPU) FlushCacheStats() {
	if c.obs == nil {
		return
	}
	dh, dm := c.dcache.Stats()
	if h, m := counterDelta(dh, &c.reportedDecodeHits), counterDelta(dm, &c.reportedDecodeMisses); h|m != 0 {
		c.obs.CacheBatch(telemetry.CacheDecode, h, m)
	}
	th, tm := c.Mem.TranslationCacheStats()
	if h, m := counterDelta(th, &c.reportedTLCHits), counterDelta(tm, &c.reportedTLCMisses); h|m != 0 {
		c.obs.CacheBatch(telemetry.CacheMemTLC, h, m)
	}
	fe := counterDelta(c.fastEntries, &c.reportedFastEntries)
	fx := counterDelta(c.fastExits, &c.reportedFastExits)
	fs := counterDelta(c.fastSteps, &c.reportedFastSteps)
	if fe|fx|fs != 0 {
		c.obs.FastLoop(fe, fx, fs)
	}
}

// Halted reports whether the machine has stopped.
func (c *CPU) Halted() bool { return c.halted }

// ExitCode returns the code passed to SysExit (0 for HALT).
func (c *CPU) ExitCode() uint32 { return c.exitCode }

// Instret returns the number of instructions committed.
func (c *CPU) Instret() uint64 { return c.instret }

// Cycles returns the modeled cycle count: a simple in-order timing model
// (single-issue; loads 2 cycles, multiplies 3, divides 20, taken control
// transfers 2, syscalls 50, everything else 1). It gives the examples and
// co-simulations a native-time denominator that is not just instruction
// count.
func (c *CPU) Cycles() uint64 { return c.cycles }

// cycleCost returns the cost of the instruction just executed; taken
// reports whether a control transfer redirected the PC.
func cycleCost(in isa.Instr, taken bool) uint64 {
	switch in.Op {
	case isa.MUL:
		return 3
	case isa.DIVU:
		return 20
	case isa.SYS:
		return 50
	}
	switch in.Op.Class() {
	case isa.ClassLoad:
		return 2
	case isa.ClassBranch:
		if taken {
			return 2
		}
		return 1
	case isa.ClassJump, isa.ClassJumpInd:
		return 2
	}
	return 1
}

// cycleTable tabulates cycleCost(op, taken=false) for the fast loop. The
// only opcodes whose cost depends on taken are the conditional branches,
// whose redirectPenalty the dispatch switch adds at the branch site;
// unconditional transfers already cost 2 in the untaken column.
var cycleTable = buildCycleTable()

// redirectPenalty is the taken-branch cycle: charged, as Step's cycleCost
// charges it, only when the branch actually redirects the PC. A taken
// zero-offset branch falls through and costs nothing extra.
func redirectPenalty(pc, next uint32) uint64 {
	if next != pc+isa.WordSize {
		return 1
	}
	return 0
}

func buildCycleTable() [256]uint8 {
	var t [256]uint8
	for op := 0; op < 256; op++ {
		t[op] = uint8(cycleCost(isa.Instr{Op: isa.Op(op)}, false))
	}
	return t
}

// Fast-loop instruction classification: every opcode maps to one of four
// kinds. fkExit marks the instructions the fast loop refuses to execute —
// syscalls (taint sources/sinks), indirect jumps (tainted-pointer policy),
// halts, and the taint-state opcodes (strf/stnt/ltnt) — because their
// semantics involve the tracker. Everything else is register-only (fkReg),
// a load (fkLoad), or a store (fkStore).
const (
	fkExit uint8 = iota
	fkReg
	fkLoad
	fkStore
)

var fastKinds = buildFastKinds()

func buildFastKinds() [256]uint8 {
	var t [256]uint8
	for op := 0; op < 256; op++ {
		switch isa.Op(op).Class() {
		case isa.ClassNop, isa.ClassMove, isa.ClassImm, isa.ClassALU2,
			isa.ClassALUImm, isa.ClassBranch, isa.ClassJump:
			t[op] = fkReg
		case isa.ClassLoad:
			t[op] = fkLoad
		case isa.ClassStore:
			t[op] = fkStore
		default:
			t[op] = fkExit
		}
	}
	return t
}

// neverDone is Run's sentinel cancellation channel for nil and background
// contexts: never closed, so the poll's select always takes the default arm
// and the nil test stays out of the loop.
var neverDone <-chan struct{} = make(chan struct{})

// Run executes until HALT/SysExit, a fault, a tracker violation, context
// cancellation, or maxSteps instructions. It returns the number of
// instructions committed by this call.
//
// When the attached tracker implements FastTracker (or no tracker is
// attached) and the epoch is taint-free, Run executes inside runFast — the
// interpreter analog of the paper's §5.1 hardware fast path — re-checking
// the entry condition every FastRetryInterval steps after an exit. Fast
// segments are bounded so they end exactly on CancelCheckInterval
// boundaries, preserving the cancellation granularity below.
//
// Cancellation is polled every CancelCheckInterval steps (including before
// the first), so a canceled run stops within that bound; the context's own
// error (context.Canceled or context.DeadlineExceeded) is returned. A nil or
// background context costs only the never-firing select arm, and Run
// allocates nothing either way.
func (c *CPU) Run(ctx context.Context, maxSteps uint64) (uint64, error) {
	defer c.FlushCacheStats()
	done := neverDone
	if ctx != nil {
		if d := ctx.Done(); d != nil {
			done = d
		}
	}
	ft, isFast := c.tracker.(FastTracker)
	// With no tracker at all the fast loop is trivially sound: there is
	// nothing to consult. A tracker that is not a FastTracker (the co-sim
	// monitors) always takes the full loop.
	fastCapable := c.tracker == nil || isFast
	resident := false // currently inside a fast-loop residency span
	var steps uint64
	for !c.halted {
		if steps >= maxSteps {
			if resident {
				c.fastExits++
			}
			return steps, Fault{PC: c.PC, Reason: ErrStepLimit.Error()}
		}
		if steps&(CancelCheckInterval-1) == 0 {
			select {
			case <-done:
				if resident {
					c.fastExits++
				}
				return steps, ctx.Err()
			default:
			}
		}
		if fastCapable && steps&(FastRetryInterval-1) == 0 && (ft == nil || ft.EpochTaintFree()) {
			// Unguarded when no memory byte is tainted: the fast set cannot
			// create taint, so per-access coarse checks are unnecessary.
			guarded := ft != nil && ft.TaintResident()
			// Bound the segment to the next cancellation boundary (and the
			// step budget) so polling granularity is unchanged.
			limit := uint64(CancelCheckInterval) - steps&(CancelCheckInterval-1)
			if rem := maxSteps - steps; rem < limit {
				limit = rem
			}
			n := c.runFast(ft, limit, guarded)
			if n > 0 {
				steps += n
				c.fastSteps += n
				if !resident {
					c.fastEntries++
					resident = true
				}
				if ft != nil {
					ft.CommitClean(n)
				}
				if n == limit {
					// Boundary reached, not an exit condition: poll and
					// resume the same residency span.
					continue
				}
			}
			if resident {
				c.fastExits++
				resident = false
			}
		}
		if err := c.Step(); err != nil {
			return steps, err
		}
		steps++
	}
	return steps, nil
}

// runFast is the taint-free fast interpreter loop: no tracker calls, no
// shadow lookups, events buffered instead of delivered per instruction. It
// executes at most limit instructions and returns early on the first
// exit-class instruction (syscall, indirect jump, halt, taint-state op), the
// first coarse-unclean memory access (guarded mode), the first store into a
// page holding cached code, or a decode miss that fails — leaving that
// instruction for the full loop to execute with precise checks. Returns the
// number of instructions committed.
//
// The caller settles tracker accounting for the returned count via
// FastTracker.CommitClean; events carry Tainted=false, which is exactly what
// the full loop's Touches would have reported for a clean epoch.
func (c *CPU) runFast(ft FastTracker, limit uint64, guarded bool) uint64 {
	var n uint64
	hooked := c.hook != nil
	// Architectural state lives in locals for the duration of the segment —
	// the PC stays in a register across instructions and the retired/cycle
	// counters are flushed once on exit instead of read-modify-written per
	// instruction.
	pc := c.PC
	r := &c.Regs
	cycles, instret := c.cycles, c.instret
	probe := c.dcache.Probe()
	var hits, misses uint64
loop:
	for n < limit {
		e, ok := probe.At(pc)
		if !ok {
			misses++
			word := c.Mem.LoadWord(pc)
			in, err := isa.Decode(word)
			if err != nil {
				break // the full loop re-decodes and surfaces the fault
			}
			c.insertDecode(pc, in)
			c.codePages.Add(mem.PageNumber(pc))
			c.codePages.Add(mem.PageNumber(pc + isa.WordSize - 1))
			// Fuse opportunistically on fill: backwards (the predecessor may
			// have been waiting for this decode) and forwards.
			if pc >= isa.WordSize {
				c.dcache.TryFuse(pc - isa.WordSize)
			}
			c.dcache.TryFuse(pc)
			continue
		}
		hits++
		in, k := e.In, e.Aux
		fused := e.Fuse != isa.FuseNone
		// The inner loop runs once for a plain entry and twice for a fused
		// superinstruction: the successor re-enters with fused cleared.
		// Fusible guarantees the first slot never redirects the PC (so the
		// successor is architecturally next) and the second slot is
		// register-only or a branch — always fkReg, never an exit class.
		for {
			if k == fkExit {
				break loop
			}
			var addr uint32
			var size uint8
			if k != fkReg && (guarded || hooked || k == fkStore) {
				// The effective address is only needed by the coarse screen,
				// the self-modifying-store screen, and the event stream; an
				// unguarded, unhooked load computes it at its opcode alone.
				addr = r[in.Rs1] + uint32(in.Imm)
				size = uint8(in.Op.MemSize())
				if guarded && !ft.MemCoarseClean(addr, int(size)) {
					break loop // potentially tainted access: full loop re-executes it
				}
				if k == fkStore && c.storeHitsCode(addr, uint32(size)) {
					break loop // self-modifying store: full loop handles invalidation
				}
			}
			// Architectural semantics, mirroring exec for the fast set. A
			// store reaching this switch passed the code-page screen, so the
			// noteStore walk exec performs is skipped as a proven no-op.
			next := pc + isa.WordSize
			switch in.Op {
			case isa.NOP:
			case isa.MOV:
				r[in.Rd] = r[in.Rs1]
			case isa.MOVI:
				r[in.Rd] = uint32(in.Imm)
			case isa.LUI:
				r[in.Rd] = uint32(uint16(in.Imm)) << 16
			case isa.ORI:
				r[in.Rd] = r[in.Rs1] | uint32(uint16(in.Imm))
			case isa.ADD:
				r[in.Rd] = r[in.Rs1] + r[in.Rs2]
			case isa.SUB:
				r[in.Rd] = r[in.Rs1] - r[in.Rs2]
			case isa.AND:
				r[in.Rd] = r[in.Rs1] & r[in.Rs2]
			case isa.OR:
				r[in.Rd] = r[in.Rs1] | r[in.Rs2]
			case isa.XOR:
				r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
			case isa.SHL:
				r[in.Rd] = r[in.Rs1] << (r[in.Rs2] & 31)
			case isa.SHR:
				r[in.Rd] = r[in.Rs1] >> (r[in.Rs2] & 31)
			case isa.SAR:
				r[in.Rd] = uint32(int32(r[in.Rs1]) >> (r[in.Rs2] & 31))
			case isa.MUL:
				r[in.Rd] = r[in.Rs1] * r[in.Rs2]
			case isa.DIVU:
				if r[in.Rs2] == 0 {
					r[in.Rd] = ^uint32(0)
				} else {
					r[in.Rd] = r[in.Rs1] / r[in.Rs2]
				}
			case isa.SLT:
				if int32(r[in.Rs1]) < int32(r[in.Rs2]) {
					r[in.Rd] = 1
				} else {
					r[in.Rd] = 0
				}
			case isa.SLTU:
				if r[in.Rs1] < r[in.Rs2] {
					r[in.Rd] = 1
				} else {
					r[in.Rd] = 0
				}
			case isa.ADDI:
				r[in.Rd] = r[in.Rs1] + uint32(in.Imm)
			case isa.ANDI:
				r[in.Rd] = r[in.Rs1] & uint32(uint16(in.Imm))
			case isa.XORI:
				r[in.Rd] = r[in.Rs1] ^ uint32(uint16(in.Imm))
			case isa.LDB:
				r[in.Rd] = uint32(c.Mem.LoadByte(r[in.Rs1] + uint32(in.Imm)))
			case isa.LDH:
				r[in.Rd] = uint32(c.Mem.LoadHalf(r[in.Rs1] + uint32(in.Imm)))
			case isa.LDW:
				r[in.Rd] = c.Mem.LoadWord(r[in.Rs1] + uint32(in.Imm))
			case isa.STB:
				c.Mem.StoreByte(addr, byte(r[in.Rd]))
			case isa.STH:
				c.Mem.StoreHalf(addr, uint16(r[in.Rd]))
			case isa.STW:
				c.Mem.StoreWord(addr, r[in.Rd])
			case isa.BEQ:
				if r[in.Rd] == r[in.Rs1] {
					next = branchTarget(pc, in.Imm)
					cycles += redirectPenalty(pc, next)
				}
			case isa.BNE:
				if r[in.Rd] != r[in.Rs1] {
					next = branchTarget(pc, in.Imm)
					cycles += redirectPenalty(pc, next)
				}
			case isa.BLT:
				if int32(r[in.Rd]) < int32(r[in.Rs1]) {
					next = branchTarget(pc, in.Imm)
					cycles += redirectPenalty(pc, next)
				}
			case isa.BGE:
				if int32(r[in.Rd]) >= int32(r[in.Rs1]) {
					next = branchTarget(pc, in.Imm)
					cycles += redirectPenalty(pc, next)
				}
			case isa.JMP:
				next = branchTarget(pc, in.Imm)
			case isa.CALL:
				r[isa.RegLR] = next
				next = branchTarget(pc, in.Imm)
			default:
				// Defensive: fastKinds admits nothing else.
				break loop
			}
			cycles += uint64(cycleTable[in.Op])
			instret++
			n++
			if hooked {
				c.evbuf[c.evn] = trace.Event{
					Seq:     instret,
					PC:      pc,
					IsMem:   k != fkReg,
					IsWrite: k == fkStore,
					Addr:    addr,
					Size:    size,
				}
				c.evn++
				if c.evn == EventBatchSize {
					c.flushEvents()
				}
			}
			pc = next
			if !fused || n >= limit {
				break
			}
			in, k, fused = e.Next, fkReg, false
		}
	}
	c.PC = pc
	c.cycles = cycles
	c.instret = instret
	c.dcache.AddStats(hits, misses)
	c.flushEvents()
	return n
}

// Step executes one instruction.
func (c *CPU) Step() error {
	if c.halted {
		return Fault{PC: c.PC, Reason: "machine halted"}
	}
	pc := c.PC
	in, ok := c.dcache.Lookup(pc)
	if !ok {
		word := c.Mem.LoadWord(pc)
		var err error
		in, err = isa.Decode(word)
		if err != nil {
			return Fault{PC: pc, Reason: err.Error()}
		}
		c.insertDecode(pc, in)
		// Mark every page the instruction word spans so stores over it are
		// caught.
		c.codePages.Add(mem.PageNumber(pc))
		c.codePages.Add(mem.PageNumber(pc + isa.WordSize - 1))
		// Build superinstructions on fill so warm code is fused no matter
		// which loop populated the cache.
		if pc >= isa.WordSize {
			c.dcache.TryFuse(pc - isa.WordSize)
		}
		c.dcache.TryFuse(pc)
	}

	// Effective address for memory operands, known before execution.
	var addr uint32
	var size uint8
	writesMem := in.WritesMem()
	isMem := in.ReadsMem() || writesMem
	if isMem {
		addr = c.Regs[in.Rs1] + uint32(in.Imm)
		size = uint8(in.Op.MemSize())
	}

	touches := false
	if c.tracker != nil {
		touches = c.tracker.Touches(in, addr)
	}

	// Pre-execution check: tainted indirect control transfers must be
	// caught before the PC is corrupted.
	if in.Op.Class() == isa.ClassJumpInd && c.tracker != nil {
		if err := c.tracker.IndirectTarget(pc, int(in.Rs1), c.Regs[in.Rs1]); err != nil {
			return err
		}
	}

	if err := c.exec(pc, in); err != nil {
		return err
	}
	c.cycles += cycleCost(in, c.PC != pc+isa.WordSize)

	if c.tracker != nil {
		if err := c.tracker.Commit(pc, in, addr); err != nil {
			return err
		}
	}
	c.instret++
	if c.hook != nil {
		c.hook.Consume(trace.Event{
			Seq:     c.instret,
			PC:      pc,
			IsMem:   isMem,
			IsWrite: writesMem,
			Addr:    addr,
			Size:    size,
			Tainted: touches,
		})
	}
	return nil
}

// exec applies the architectural semantics of in and advances the PC.
func (c *CPU) exec(pc uint32, in isa.Instr) error {
	next := pc + isa.WordSize
	r := &c.Regs
	switch in.Op {
	case isa.NOP:
	case isa.MOV:
		r[in.Rd] = r[in.Rs1]
	case isa.MOVI:
		r[in.Rd] = uint32(in.Imm)
	case isa.LUI:
		r[in.Rd] = uint32(uint16(in.Imm)) << 16
	case isa.ORI:
		r[in.Rd] = r[in.Rs1] | uint32(uint16(in.Imm))
	case isa.ADD:
		r[in.Rd] = r[in.Rs1] + r[in.Rs2]
	case isa.SUB:
		r[in.Rd] = r[in.Rs1] - r[in.Rs2]
	case isa.AND:
		r[in.Rd] = r[in.Rs1] & r[in.Rs2]
	case isa.OR:
		r[in.Rd] = r[in.Rs1] | r[in.Rs2]
	case isa.XOR:
		r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
	case isa.SHL:
		r[in.Rd] = r[in.Rs1] << (r[in.Rs2] & 31)
	case isa.SHR:
		r[in.Rd] = r[in.Rs1] >> (r[in.Rs2] & 31)
	case isa.SAR:
		r[in.Rd] = uint32(int32(r[in.Rs1]) >> (r[in.Rs2] & 31))
	case isa.MUL:
		r[in.Rd] = r[in.Rs1] * r[in.Rs2]
	case isa.DIVU:
		if r[in.Rs2] == 0 {
			r[in.Rd] = ^uint32(0)
		} else {
			r[in.Rd] = r[in.Rs1] / r[in.Rs2]
		}
	case isa.SLT:
		if int32(r[in.Rs1]) < int32(r[in.Rs2]) {
			r[in.Rd] = 1
		} else {
			r[in.Rd] = 0
		}
	case isa.SLTU:
		if r[in.Rs1] < r[in.Rs2] {
			r[in.Rd] = 1
		} else {
			r[in.Rd] = 0
		}
	case isa.ADDI:
		r[in.Rd] = r[in.Rs1] + uint32(in.Imm)
	case isa.ANDI:
		r[in.Rd] = r[in.Rs1] & uint32(uint16(in.Imm))
	case isa.XORI:
		r[in.Rd] = r[in.Rs1] ^ uint32(uint16(in.Imm))
	case isa.LDB:
		r[in.Rd] = uint32(c.Mem.LoadByte(r[in.Rs1] + uint32(in.Imm)))
	case isa.LDH:
		r[in.Rd] = uint32(c.Mem.LoadHalf(r[in.Rs1] + uint32(in.Imm)))
	case isa.LDW:
		r[in.Rd] = c.Mem.LoadWord(r[in.Rs1] + uint32(in.Imm))
	case isa.STB:
		a := r[in.Rs1] + uint32(in.Imm)
		c.noteStore(a, 1)
		c.Mem.StoreByte(a, byte(r[in.Rd]))
	case isa.STH:
		a := r[in.Rs1] + uint32(in.Imm)
		c.noteStore(a, 2)
		c.Mem.StoreHalf(a, uint16(r[in.Rd]))
	case isa.STW:
		a := r[in.Rs1] + uint32(in.Imm)
		c.noteStore(a, 4)
		c.Mem.StoreWord(a, r[in.Rd])
	case isa.BEQ:
		if r[in.Rd] == r[in.Rs1] {
			next = branchTarget(pc, in.Imm)
		}
	case isa.BNE:
		if r[in.Rd] != r[in.Rs1] {
			next = branchTarget(pc, in.Imm)
		}
	case isa.BLT:
		if int32(r[in.Rd]) < int32(r[in.Rs1]) {
			next = branchTarget(pc, in.Imm)
		}
	case isa.BGE:
		if int32(r[in.Rd]) >= int32(r[in.Rs1]) {
			next = branchTarget(pc, in.Imm)
		}
	case isa.JMP:
		next = branchTarget(pc, in.Imm)
	case isa.JR:
		next = r[in.Rs1]
	case isa.CALL:
		r[isa.RegLR] = next
		next = branchTarget(pc, in.Imm)
	case isa.CALLR:
		r[isa.RegLR] = next
		next = r[in.Rs1]
	case isa.SYS:
		if err := c.syscall(pc, in.Imm); err != nil {
			return err
		}
	case isa.HALT:
		c.halted = true
	case isa.STRF:
		if c.tracker != nil {
			c.tracker.SetRegTaintMask(r[in.Rd], shadow.MustLabel(0))
		}
	case isa.STNT:
		if c.tracker != nil {
			c.tracker.SetTaintByte(r[in.Rs1], shadow.Tag(r[in.Rd]))
		}
	case isa.LTNT:
		r[in.Rd] = c.lastExceptionAddr
	default:
		return Fault{PC: pc, Reason: fmt.Sprintf("unimplemented opcode %s", in.Op)}
	}
	c.PC = next
	return nil
}

func branchTarget(pc uint32, offInstrs int32) uint32 {
	return pc + isa.WordSize + uint32(offInstrs)*isa.WordSize
}

// syscall implements the OS model. Arguments are in r1..r4; the result is
// returned in r1.
func (c *CPU) syscall(pc uint32, num int32) error {
	r := &c.Regs
	switch num {
	case isa.SysExit:
		c.exitCode = r[1]
		c.halted = true
	case isa.SysRead:
		buf, n := r[1], int(r[2])
		avail := len(c.Env.FileData) - c.Env.fileOff
		if n > avail {
			n = avail
		}
		if n > 0 {
			c.noteStore(buf, uint32(n))
			c.Mem.Write(buf, c.Env.FileData[c.Env.fileOff:c.Env.fileOff+n])
			c.Env.fileOff += n
			if c.tracker != nil {
				c.tracker.Input(buf, n, dift.SourceFile, -1)
			}
			if c.obs != nil {
				c.obs.TaintSource(telemetry.SourceFile, n)
			}
		}
		r[1] = uint32(n)
	case isa.SysRecv:
		buf, n := r[1], int(r[2])
		if c.Env.curReq < 0 {
			r[1] = 0
			break
		}
		req := c.Env.Requests[c.Env.curReq]
		avail := len(req) - c.Env.curOff
		if n > avail {
			n = avail
		}
		if n > 0 {
			c.noteStore(buf, uint32(n))
			c.Mem.Write(buf, req[c.Env.curOff:c.Env.curOff+n])
			c.Env.curOff += n
			if c.tracker != nil {
				c.tracker.Input(buf, n, dift.SourceNet, c.Env.curConn)
			}
			if c.obs != nil {
				c.obs.TaintSource(telemetry.SourceNet, n)
			}
		}
		r[1] = uint32(n)
	case isa.SysAccept:
		if c.Env.reqIdx >= len(c.Env.Requests) {
			r[1] = ^uint32(0) // no more connections
			break
		}
		c.Env.curReq = c.Env.reqIdx
		c.Env.reqIdx++
		c.Env.curOff = 0
		if c.tracker != nil {
			c.Env.curConn = c.tracker.Accept()
		} else {
			c.Env.curConn++
		}
		r[1] = uint32(c.Env.curConn)
	case isa.SysWrite:
		buf, n := r[1], int(r[2])
		// Short write, as POSIX permits: the sink accepts at most
		// MaxSysWriteBytes per call. The cap keeps a hostile length (r2 is
		// untrusted program state) from turning one instruction into a
		// 4 GiB shadow walk and allocation; callers see the short count in
		// r1 exactly as they would from write(2).
		if n > MaxSysWriteBytes {
			n = MaxSysWriteBytes
		}
		if c.tracker != nil {
			if err := c.tracker.Output(pc, buf, n); err != nil {
				return err
			}
		}
		data := make([]byte, n)
		c.Mem.Read(buf, data)
		c.Env.Output.Write(data)
		r[1] = uint32(n)
	case isa.SysTime:
		r[1] = uint32(c.instret)
	default:
		return Fault{PC: pc, Reason: fmt.Sprintf("unknown syscall %d", num)}
	}
	return nil
}
