package vm

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"latch/internal/dift"
	"latch/internal/isa"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/trace"
)

// The fast-loop tests pin the epoch-aware interpreter's exit conditions: the
// loop may only run while the tracker proves the epoch taint-free, and must
// hand the first suspect instruction back to the full loop with precise
// checks intact.

func newDift() *dift.Engine {
	return dift.NewEngine(shadow.MustNew(64), policy.Default())
}

// TestFastLoopSelfModifyingStore: a store over an already-executed-from code
// page must exit the fast loop so the full loop's decode invalidation runs.
// The program copies a "movi r1, 42" template over an upcoming "movi r1, 1";
// executing the new instruction proves the stale decode was dropped.
func TestFastLoopSelfModifyingStore(t *testing.T) {
	e := newDift()
	c, err := run(t, `
		movi r2, 0
		ldw  r3, [r2+28]  ; the template word at byte 28
		stw  r3, [r2+16]  ; overwrite the instruction at byte 16
		nop
		movi r1, 1        ; byte 16: replaced by the template before it runs
		halt
		nop
		movi r1, 42       ; byte 28: template (data, never executed)
	`, e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[1] != 42 {
		t.Fatalf("r1 = %d, want 42 (stale decode executed)", c.Regs[1])
	}
	entries, exits, steps := c.FastLoopStats()
	if entries == 0 || steps == 0 {
		t.Fatalf("fast loop never entered: entries=%d exits=%d steps=%d", entries, exits, steps)
	}
	if exits == 0 {
		t.Fatal("self-modifying store did not exit the fast loop")
	}
}

// TestFastLoopStntFlipsCoarseBit: stnt flips a CTT domain bit mid-epoch. The
// taint-state opcode is an exit class, and once memory taint is resident the
// re-entered (guarded) fast loop must screen the load that touches the
// freshly-tainted domain — the register must come back tainted.
func TestFastLoopStntFlipsCoarseBit(t *testing.T) {
	e := newDift()
	_, err := run(t, `
		li   r2, 0x3000
		movi r3, 1
		nop
		nop
		stnt r2, r3       ; flip the CTT bit for 0x3000's domain mid-epoch
		ldw  r4, [r2]     ; guarded fast loop must not skip this check
		halt
	`, e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.RegTaint(4) == (dift.RegTaint{}) {
		t.Fatal("load of freshly-tainted domain left r4 clean")
	}
	if e.Shadow.TaintedBytes() == 0 {
		t.Fatal("stnt did not set memory taint")
	}
}

// TestFastLoopIndirectJumpFreshTaint: an indirect jump through a register
// tainted earlier in the run must surface the identical control-flow
// violation whether the program ran through Run (fast loop eligible) or a
// pure Step loop.
func TestFastLoopIndirectJumpFreshTaint(t *testing.T) {
	src := `
		li   r1, 0x3000
		movi r2, 4
		sys  2            ; read 4 tainted bytes to 0x3000
		li   r3, 0x3000
		nop
		nop
		nop
		ldw  r4, [r3]     ; r4 freshly tainted
		jr   r4           ; hijack
		halt
	`
	file := []byte{0x00, 0x10, 0x00, 0x00}

	e1 := newDift()
	_, errRun := run(t, src, e1, func(env *Env) { env.FileData = file })

	e2 := newDift()
	p := isa.MustAssemble(src)
	c2 := New()
	c2.Env.FileData = file
	c2.SetTracker(e2)
	c2.Load(p)
	var errStep error
	for i := 0; i < 1000 && !c2.Halted(); i++ {
		if errStep = c2.Step(); errStep != nil {
			break
		}
	}

	var v1, v2 dift.Violation
	if !errors.As(errRun, &v1) || v1.Kind != dift.ViolationControlFlow {
		t.Fatalf("Run err = %v, want control-flow violation", errRun)
	}
	if !errors.As(errStep, &v2) {
		t.Fatalf("Step err = %v, want control-flow violation", errStep)
	}
	if v1 != v2 {
		t.Fatalf("violations diverge:\n fast: %+v\n step: %+v", v1, v2)
	}
}

// batchRecorder records events via ConsumeBatch (and counts batches); its
// embedded SinkFunc would be used only if the batch path were bypassed.
type batchRecorder struct {
	evs     []trace.Event
	batches int
	singles int
}

func (b *batchRecorder) Consume(ev trace.Event) {
	b.singles++
	b.evs = append(b.evs, ev)
}

func (b *batchRecorder) ConsumeBatch(evs []trace.Event) {
	b.batches++
	b.evs = append(b.evs, evs...)
}

// TestFastLoopBatchFlushOrdering: the event stream delivered through a
// BatchSink must be identical, event for event, to the stream a plain Sink
// receives — batching only changes delivery granularity, never content or
// order.
func TestFastLoopBatchFlushOrdering(t *testing.T) {
	src := `
		li   r2, 0x3000
		movi r4, 0
		movi r6, 200
	loop:
		stw  r4, [r2+0]
		ldw  r5, [r2+0]
		addi r4, r4, 1
		bne  r4, r6, loop
		halt
	`
	runWith := func(hook trace.Sink) []trace.Event {
		c := New()
		c.SetTracker(newDift())
		c.SetHook(hook)
		c.Load(isa.MustAssemble(src))
		if _, err := c.Run(context.Background(), 10_000); err != nil {
			t.Fatal(err)
		}
		return nil
	}

	var plain []trace.Event
	runWith(trace.SinkFunc(func(ev trace.Event) { plain = append(plain, ev) }))
	rec := &batchRecorder{}
	runWith(rec)

	if len(plain) != len(rec.evs) {
		t.Fatalf("event counts diverge: plain %d, batched %d", len(plain), len(rec.evs))
	}
	for i := range plain {
		if plain[i] != rec.evs[i] {
			t.Fatalf("event %d diverges:\n plain: %+v\n batch: %+v", i, plain[i], rec.evs[i])
		}
	}
	if rec.batches == 0 {
		t.Fatal("BatchSink hook never received a batch")
	}
}

// FuzzFastLoopVsStep: a program executed through Run (fast loop, fusion,
// batched events) and through a plain Step loop must agree on every piece of
// architectural and taint state and on the event stream. This is the
// semantic anchor for the fast loop's inlined interpreter. Inputs are raw
// little-endian instruction words plus file-source bytes, so the fuzzer
// reaches encodings the random program generator never emits (backward and
// zero-offset branches, wild registers, undecodable words). The seeds are 25
// generated programs and the regressions the fuzzer found.
func FuzzFastLoopVsStep(f *testing.F) {
	const (
		origin   = 0x1000
		budget   = 20_000
		maxWords = 4096
		maxFile  = 4096
	)
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, err := isa.BuildProgram(origin, isa.RandomProgram(rng, isa.DefaultGenConfig()))
		if err != nil {
			f.Fatalf("seed %d: %v", seed, err)
		}
		file := make([]byte, 64)
		rng.Read(file)
		f.Add(p.Image, file)
	}
	// A taken zero-offset branch falls through: Step charges no taken-branch
	// cycle for it, and the fast loop must not either.
	f.Add(isa.MustAssemble(`
		movi r1, 0
		movi r2, 0
		beq  r1, r2, next
	next:
		movi r3, 1
		halt
	`).Image, []byte(nil))

	f.Fuzz(func(t *testing.T, code, file []byte) {
		code = code[:min(len(code), maxWords*isa.WordSize)&^(isa.WordSize-1)]
		file = file[:min(len(file), maxFile)]
		p := &isa.Program{Origin: origin, Entry: origin, Image: code}

		type outcome struct {
			steps   uint64
			err     string
			regs    [isa.NumRegs]uint32
			pc      uint32
			instret uint64
			cycles  uint64
			halted  bool
			tainted uint64
			events  []trace.Event
		}
		exec := func(fast bool) outcome {
			e := newDift()
			c := New()
			c.Env.FileData = append([]byte(nil), file...)
			c.SetTracker(e)
			var o outcome
			c.SetHook(trace.SinkFunc(func(ev trace.Event) { o.events = append(o.events, ev) }))
			c.Load(p)
			var err error
			if fast {
				o.steps, err = c.Run(context.Background(), budget)
			} else {
				for o.steps < budget && !c.Halted() {
					if err = c.Step(); err != nil {
						break
					}
					o.steps++
				}
			}
			if err != nil && !strings.Contains(err.Error(), "step limit") {
				o.err = err.Error()
			}
			o.regs, o.pc, o.instret, o.cycles, o.halted = c.Regs, c.PC, c.Instret(), c.Cycles(), c.Halted()
			o.tainted = e.Shadow.TaintedBytes()
			return o
		}

		fast, slow := exec(true), exec(false)
		if fast.steps != slow.steps || fast.err != slow.err || fast.regs != slow.regs ||
			fast.pc != slow.pc || fast.instret != slow.instret || fast.cycles != slow.cycles ||
			fast.halted != slow.halted || fast.tainted != slow.tainted {
			t.Fatalf("state diverges\n fast: steps=%d err=%q pc=%#x instret=%d cycles=%d halted=%v tainted=%d regs=%v\n slow: steps=%d err=%q pc=%#x instret=%d cycles=%d halted=%v tainted=%d regs=%v",
				fast.steps, fast.err, fast.pc, fast.instret, fast.cycles, fast.halted, fast.tainted, fast.regs,
				slow.steps, slow.err, slow.pc, slow.instret, slow.cycles, slow.halted, slow.tainted, slow.regs)
		}
		if len(fast.events) != len(slow.events) {
			t.Fatalf("event counts diverge: fast %d, slow %d", len(fast.events), len(slow.events))
		}
		for i := range fast.events {
			if fast.events[i] != slow.events[i] {
				t.Fatalf("event %d diverges\n fast: %+v\n slow: %+v", i, fast.events[i], slow.events[i])
			}
		}
	})
}

// TestFastLoopGuardedStore: with taint resident elsewhere, the guarded fast
// loop keeps running clean stores — and exits for a store into the tainted
// domain, which the full loop then clears precisely (overwriting tainted
// bytes with a clean register).
func TestFastLoopGuardedStore(t *testing.T) {
	e := newDift()
	e.TaintMemory(0x4000, 4, shadow.MustLabel(0))
	c, err := run(t, `
		li   r2, 0x3000
		li   r3, 0x4000
		movi r4, 7
		stw  r4, [r2+0]   ; clean store to a clean domain: stays in fast loop
		stw  r4, [r2+4]
		stw  r4, [r3+0]   ; store into the tainted domain: exits, clears taint
		halt
	`, e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Shadow.TaintedBytes(); got != 0 {
		t.Fatalf("tainted bytes after clean overwrite = %d, want 0", got)
	}
	if c.Mem.LoadWord(0x4000) != 7 {
		t.Fatal("store into tainted domain lost")
	}
}
