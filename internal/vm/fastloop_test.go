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

// FuzzFastLoopVsStep: a program executed through Run (fast loop eligible)
// and through a plain Step loop must agree on every piece of architectural
// and taint state — the 16 registers' byte taint and the TRF among it, which
// must also equal a scan of those registers — on the tracker's committed and
// tainted instruction counts, and on the program's output, under classical
// and PIFT propagation. This is the semantic anchor for the fast loop's
// inlined interpreter and its TRF bookkeeping. Inputs are raw little-endian
// instruction words plus file-source bytes, so the fuzzer reaches encodings
// the random program generator never emits (backward and zero-offset
// branches, wild registers, undecodable words, jumps into unmapped memory).
// The seeds are 25 generated programs, the regressions the fuzzer found, two
// wild jumps, a program that runs the fast loop guarded — taint resident in
// memory, registers clean — around tainted loads and stores, and three that
// run it past tainted registers: the server program's checksum loop over
// tainted file bytes, a strf-tainted register that clean code overwrites
// before a jr through it (which must not fire), and a jr through a register
// that is still tainted (the same violation on both sides).
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
	// Jumps into never-mapped memory fault at the first fetch: the fast
	// loop takes the jmp itself and must fault exactly where Step does.
	f.Add(isa.MustAssemble("movi r1, 5\njmp 30000").Image, []byte(nil))
	f.Add(isa.MustAssemble("li r1, 0x40000000\njr r1").Image, []byte(nil))
	// Taint resident in memory while the registers are clean: the fast loop
	// runs guarded, keeps the clean loads and stores around the tainted
	// buffer, and must exit for every access into it — the loaded word and
	// the store of it carry taint only through the full loop's checks.
	guarded := isa.MustAssemble(`
		li   r1, 0x3000
		movi r2, 16
		sys  2            ; 16 tainted bytes at 0x3000
		li   r3, 0x3000
		li   r5, 0x3100   ; clean scratch, another domain of the same page
		movi r6, 100
		movi r7, 0
	clean:
		ldw  r4, [r5]     ; clean load: passes the coarse screen
		stw  r6, [r5+4]   ; clean store
		addi r6, r6, -1
		bne  r6, r7, clean
		ldw  r4, [r3+4]   ; tainted load
		stw  r4, [r5+8]   ; taints 0x3108
		movi r4, 0
		movi r6, 100
	again:
		ldb  r8, [r3+15]  ; tainted byte load, each pass of a clean epoch
		movi r8, 0
		stw  r6, [r5+4]
		addi r6, r6, -1
		bne  r6, r7, again
		stw  r7, [r3]     ; clears 4 tainted bytes
		halt
	`)
	f.Add(guarded.Image, []byte("attacker-chosen!"))
	f.Add(guarded.Image, []byte{0xFF, 0x00, 0x7F})
	// The server program's checksum loop over tainted file bytes: the loop
	// counter and bound stay clean while the sum is tainted, so the fast
	// loop runs the counter, the address arithmetic and the loop branch past
	// the tainted sum and exits at each tainted load and each instruction
	// reading the loaded byte — the add, and a branch reading it as Rs1.
	// The tainted sum is stored at the end.
	f.Add(isa.MustAssemble(`
		li   r1, 0x8000
		movi r2, 128
		sys  2            ; tainted file bytes at 0x8000
		mov  r6, r1
		movi r7, 0        ; i
		movi r8, 0        ; checksum
		movi r12, 0       ; zero bytes seen
		beq  r6, r0, done
	csum:
		li   r9, 0x8000
		add  r9, r9, r7
		ldb  r10, [r9]
		add  r8, r8, r10
		bne  r0, r10, nz  ; reads the tainted byte as Rs1
		addi r12, r12, 1
	nz:
		addi r7, r7, 1
		blt  r7, r6, csum
	done:
		li   r11, 0x9000
		stw  r8, [r11]    ; store the tainted checksum
		mov  r1, r12
		halt
	`).Image, []byte("GET /index.html HTTP/1.0\x00\x00 checksum me"))
	// strf taints r5 and r6; clean code overwrites r5 inside the fast loop,
	// so the jr through it must not fire on either side.
	f.Add(isa.MustAssemble(`
		movi r1, 0x60     ; strf mask: r5 and r6
		strf r1
		li   r5, =target  ; clean overwrite of a tainted register
		addi r7, r5, 0
		jr   r5
		halt
	target:
		movi r2, 7
		halt
	`).Image, []byte(nil))
	// The same register still tainted at the jr: the fast loop runs the
	// clean li past it, the add reading it exits, and both sides raise the
	// same control-flow violation (under PIFT the add clears it, and
	// neither does).
	f.Add(isa.MustAssemble(`
		movi r1, 0x20     ; strf mask: r5
		strf r1
		li   r6, =target
		add  r5, r5, r6
		movi r7, 3
		jr   r5
		halt
	target:
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
			// The registers' byte taint and the TRF.
			regTaint [isa.NumRegs]dift.RegTaint
			trf      uint16
			// The tracker's committed and taint-touching instruction counts
			// (the fast loop settles the first through CommitClean) and the
			// bytes the program wrote out.
			committed, touching uint64
			output              string
		}
		exec := func(fast bool, mode policy.Propagation) outcome {
			pol := policy.Default()
			pol.Propagation = mode
			e := dift.NewEngine(shadow.MustNew(64), pol)
			c := New()
			c.Env.FileData = append([]byte(nil), file...)
			c.SetTracker(e)
			var o outcome
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
			var scan uint16
			for r := range o.regTaint {
				o.regTaint[r] = e.RegTaint(r)
				if o.regTaint[r].Tainted() {
					scan |= 1 << r
				}
			}
			if o.trf = e.TaintedRegs(); o.trf != scan {
				t.Fatalf("%s fast=%v: TRF %016b, register scan %016b", mode, fast, o.trf, scan)
			}
			o.committed, o.touching = e.InstructionsTotal(), e.InstructionsTainted()
			o.output = c.Env.Output.String()
			return o
		}

		for _, mode := range []policy.Propagation{policy.PropagationClassical, policy.PropagationPIFT} {
			fast, slow := exec(true, mode), exec(false, mode)
			if fast.steps != slow.steps || fast.err != slow.err || fast.regs != slow.regs ||
				fast.pc != slow.pc || fast.instret != slow.instret || fast.cycles != slow.cycles ||
				fast.halted != slow.halted || fast.tainted != slow.tainted {
				t.Fatalf("%s: state diverges\n fast: steps=%d err=%q pc=%#x instret=%d cycles=%d halted=%v tainted=%d regs=%v\n slow: steps=%d err=%q pc=%#x instret=%d cycles=%d halted=%v tainted=%d regs=%v",
					mode, fast.steps, fast.err, fast.pc, fast.instret, fast.cycles, fast.halted, fast.tainted, fast.regs,
					slow.steps, slow.err, slow.pc, slow.instret, slow.cycles, slow.halted, slow.tainted, slow.regs)
			}
			if fast.regTaint != slow.regTaint || fast.trf != slow.trf {
				t.Fatalf("%s: register taint diverges\n fast: TRF %016b %v\n slow: TRF %016b %v",
					mode, fast.trf, fast.regTaint, slow.trf, slow.regTaint)
			}
			if fast.committed != slow.committed || fast.touching != slow.touching {
				t.Fatalf("%s: tracker counts diverge: fast committed=%d tainted=%d, slow committed=%d tainted=%d",
					mode, fast.committed, fast.touching, slow.committed, slow.touching)
			}
			if fast.output != slow.output {
				t.Fatalf("%s: output diverges\n fast: %q\n slow: %q", mode, fast.output, slow.output)
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

// TestFastLoopRunsPastTaintedRegs: with r5 tainted for the whole run and
// never read, the engine's TRF lets the loop run the counting loop, and the
// register stays tainted. A FastTracker that hides its TRF is entered only
// while every register is clean, so the same run enters only for the movi
// before the strf.
func TestFastLoopRunsPastTaintedRegs(t *testing.T) {
	const src = `
		movi r1, 0x20     ; strf mask: r5
		strf r1
		movi r2, 0
		movi r3, 200
	loop:
		addi r2, r2, 1
		blt  r2, r3, loop
		halt
	`
	e := newDift()
	c, err := run(t, src, e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, steps := c.FastLoopStats(); steps < 400 {
		t.Fatalf("fast loop ran %d instructions past a tainted r5, want >= 400", steps)
	}
	if e.TaintedRegs() != 1<<5 || !e.RegTaint(5).Tainted() {
		t.Fatalf("TRF = %016b, want r5 alone", e.TaintedRegs())
	}

	e = newDift()
	c, err = run(t, src, struct{ FastTracker }{e}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, steps := c.FastLoopStats(); steps != 1 {
		t.Fatalf("without a TRF the loop ran %d instructions, want only the movi before the strf", steps)
	}
	if e.InstructionsTotal() != c.Instret() {
		t.Fatalf("engine counted %d of %d instructions", e.InstructionsTotal(), c.Instret())
	}
}
