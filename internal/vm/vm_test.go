package vm

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"latch/internal/dift"
	"latch/internal/isa"
	"latch/internal/policy"
	"latch/internal/shadow"
)

// run assembles src, executes it (with an optional tracker), and returns the
// CPU and error.
func run(t *testing.T, src string, tracker Tracker, env func(*Env)) (*CPU, error) {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := New()
	if env != nil {
		env(c.Env)
	}
	if tracker != nil {
		c.SetTracker(tracker)
	}
	c.Load(p)
	_, err = c.Run(context.Background(), 1_000_000)
	return c, err
}

func TestArithmetic(t *testing.T) {
	c, err := run(t, `
		movi r1, 7
		movi r2, 5
		add  r3, r1, r2   ; 12
		sub  r4, r1, r2   ; 2
		mul  r5, r1, r2   ; 35
		divu r6, r1, r2   ; 1
		and  r7, r1, r2   ; 5
		or   r8, r1, r2   ; 7
		xor  r9, r1, r2   ; 2
		halt
	`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]uint32{3: 12, 4: 2, 5: 35, 6: 1, 7: 5, 8: 7, 9: 2}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, c.Regs[r], v)
		}
	}
}

func TestShiftsAndCompares(t *testing.T) {
	c, err := run(t, `
		movi r1, -8
		movi r2, 1
		shl  r3, r1, r2   ; -16
		shr  r4, r1, r2   ; 0x7FFFFFFC
		sar  r5, r1, r2   ; -4
		slt  r6, r1, r2   ; 1 (-8 < 1 signed)
		sltu r7, r1, r2   ; 0 (0xFFFFFFF8 > 1 unsigned)
		halt
	`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int32(c.Regs[3]) != -16 || c.Regs[4] != 0x7FFFFFFC || int32(c.Regs[5]) != -4 {
		t.Errorf("shifts: %d %#x %d", int32(c.Regs[3]), c.Regs[4], int32(c.Regs[5]))
	}
	if c.Regs[6] != 1 || c.Regs[7] != 0 {
		t.Errorf("compares: %d %d", c.Regs[6], c.Regs[7])
	}
}

func TestDivByZero(t *testing.T) {
	c, err := run(t, `
		movi r1, 5
		divu r2, r1, r0
		halt
	`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[2] != ^uint32(0) {
		t.Errorf("div by zero = %#x", c.Regs[2])
	}
}

func TestLoopAndBranches(t *testing.T) {
	c, err := run(t, `
		movi r1, 10
		movi r2, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[2] != 55 {
		t.Errorf("sum = %d, want 55", c.Regs[2])
	}
}

func TestMemoryOps(t *testing.T) {
	c, err := run(t, `
		li   r1, 0x2000
		li   r2, 0x11223344
		stw  r2, [r1]
		ldw  r3, [r1]
		ldb  r4, [r1]      ; 0x44
		ldh  r5, [r1+2]    ; 0x1122
		movi r6, 0xFF
		stb  r6, [r1+1]
		ldw  r7, [r1]      ; 0x1122FF44
		halt
	`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[3] != 0x11223344 || c.Regs[4] != 0x44 || c.Regs[5] != 0x1122 {
		t.Errorf("loads: %#x %#x %#x", c.Regs[3], c.Regs[4], c.Regs[5])
	}
	if c.Regs[7] != 0x1122FF44 {
		t.Errorf("after stb: %#x", c.Regs[7])
	}
}

func TestCallRet(t *testing.T) {
	c, err := run(t, `
		movi r1, 1
		call fn
		movi r3, 3
		halt
	fn:	movi r2, 2
		ret
	`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[1] != 1 || c.Regs[2] != 2 || c.Regs[3] != 3 {
		t.Errorf("regs = %d %d %d", c.Regs[1], c.Regs[2], c.Regs[3])
	}
}

func TestIndirectJumpTable(t *testing.T) {
	c, err := run(t, `
		li  r1, =target
		jr  r1
		movi r2, 99   ; skipped
		halt
	target:
		movi r2, 7
		halt
	`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[2] != 7 {
		t.Errorf("r2 = %d", c.Regs[2])
	}
}

func TestSysExit(t *testing.T) {
	c, err := run(t, `
		movi r1, 42
		sys 1
		movi r1, 0  ; unreachable
	`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Halted() || c.ExitCode() != 42 {
		t.Errorf("halted=%v exit=%d", c.Halted(), c.ExitCode())
	}
}

func TestSysReadTaintsFileData(t *testing.T) {
	e := dift.NewEngine(shadow.MustNew(64), policy.Default())
	c, err := run(t, `
		li   r1, 0x3000
		movi r2, 4
		sys  2         ; read 4 bytes
		mov  r3, r1    ; bytes read
		halt
	`, e, func(env *Env) { env.FileData = []byte("ABCDE") })
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[3] != 4 {
		t.Fatalf("read returned %d", c.Regs[3])
	}
	var got [4]byte
	c.Mem.Read(0x3000, got[:])
	if string(got[:]) != "ABCD" {
		t.Fatalf("memory = %q", got)
	}
	if !e.Shadow.RangeTainted(0x3000, 4) {
		t.Fatal("file input not tainted")
	}
	if e.Shadow.RangeTainted(0x3004, 1) {
		t.Fatal("taint past read extent")
	}
}

func TestSysReadEOF(t *testing.T) {
	c, err := run(t, `
		li   r1, 0x3000
		movi r2, 10
		sys  2
		mov  r3, r1
		sys  2        ; second read: EOF
		mov  r4, r1
		halt
	`, nil, func(env *Env) { env.FileData = []byte("xyz") })
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[3] != 3 || c.Regs[4] != 0 {
		t.Fatalf("reads = %d, %d", c.Regs[3], c.Regs[4])
	}
}

func TestAcceptRecvWrite(t *testing.T) {
	e := dift.NewEngine(shadow.MustNew(64), policy.Default())
	c, err := run(t, `
	next:
		sys  4          ; accept
		movi r5, -1
		beq  r1, r5, done
		li   r1, 0x4000
		movi r2, 64
		sys  3          ; recv
		mov  r6, r1     ; length
		li   r1, 0x4000
		mov  r2, r6
		sys  5          ; write (echo)
		jmp  next
	done:
		halt
	`, e, func(env *Env) {
		env.Requests = [][]byte{[]byte("GET /a"), []byte("GET /bb")}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Env.Output.String(); got != "GET /aGET /bb" {
		t.Fatalf("output = %q", got)
	}
	if !e.Shadow.RangeTainted(0x4000, 4) {
		t.Fatal("request data not tainted")
	}
}

func TestTaintedIndirectJumpDetected(t *testing.T) {
	e := dift.NewEngine(shadow.MustNew(64), policy.Default())
	_, err := run(t, `
		li   r1, 0x3000
		movi r2, 4
		sys  2         ; taint 4 bytes at 0x3000
		li   r3, 0x3000
		ldw  r4, [r3]  ; r4 now tainted
		jr   r4        ; control-flow hijack!
		halt
	`, e, func(env *Env) { env.FileData = []byte{0x00, 0x10, 0x00, 0x00} })
	var v dift.Violation
	if !errors.As(err, &v) || v.Kind != dift.ViolationControlFlow {
		t.Fatalf("err = %v, want control-flow violation", err)
	}
}

func TestStepLimit(t *testing.T) {
	p := isa.MustAssemble("loop: jmp loop")
	c := New()
	c.Load(p)
	steps, err := c.Run(context.Background(), 100)
	if steps != 100 {
		t.Fatalf("steps = %d", steps)
	}
	var f Fault
	if !errors.As(err, &f) || !strings.Contains(f.Reason, "step limit") {
		t.Fatalf("err = %v", err)
	}
}

func TestIllegalInstructionFault(t *testing.T) {
	c := New()
	c.Mem.StoreWord(0, 0xFF000000)
	if err := c.Step(); err == nil {
		t.Fatal("illegal instruction executed")
	}
}

func TestUnknownSyscallFault(t *testing.T) {
	_, err := run(t, "sys 99", nil, nil)
	var f Fault
	if !errors.As(err, &f) || !strings.Contains(f.Reason, "syscall") {
		t.Fatalf("err = %v", err)
	}
}

func TestStepAfterHalt(t *testing.T) {
	c, err := run(t, "halt", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err == nil {
		t.Fatal("step after halt succeeded")
	}
}

func TestStntStrfLtnt(t *testing.T) {
	e := dift.NewEngine(shadow.MustNew(64), policy.Default())
	p := isa.MustAssemble(`
		li   r1, 0x5000
		movi r2, 1
		stnt r1, r2    ; taint byte 0x5000 with tag 1
		movi r3, 0b10  ; TRF mask: r1 tainted
		strf r3
		ltnt r4
		halt
	`)
	c := New()
	c.SetTracker(e)
	c.SetLastExceptionAddr(0xABCD)
	c.Load(p)
	if _, err := c.Run(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	if e.Shadow.Get(0x5000) != shadow.Tag(1) {
		t.Fatal("stnt did not set taint")
	}
	if !e.RegTaint(1).Tainted() || e.RegTaint(2).Tainted() {
		t.Fatal("strf mask wrong")
	}
	if c.Regs[4] != 0xABCD {
		t.Fatalf("ltnt = %#x", c.Regs[4])
	}
}

func TestSysTime(t *testing.T) {
	c, err := run(t, `
		sys 6
		mov r2, r1
		sys 6
		mov r3, r1
		halt
	`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[3] <= c.Regs[2] {
		t.Fatalf("time not advancing: %d, %d", c.Regs[2], c.Regs[3])
	}
}

func TestAcceptExhausted(t *testing.T) {
	c, err := run(t, `
		sys 4
		mov r2, r1
		halt
	`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[2] != ^uint32(0) {
		t.Fatalf("accept with no requests = %#x", c.Regs[2])
	}
}

func TestRecvWithoutAccept(t *testing.T) {
	c, err := run(t, `
		li  r1, 0x100
		movi r2, 8
		sys 3
		mov r3, r1
		halt
	`, nil, func(env *Env) { env.Requests = [][]byte{[]byte("data")} })
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[3] != 0 {
		t.Fatalf("recv without accept = %d", c.Regs[3])
	}
}

func TestLeakDetection(t *testing.T) {
	pol := policy.Default()
	pol.CheckLeak = true
	e := dift.NewEngine(shadow.MustNew(64), pol)
	_, err := run(t, `
		li   r1, 0x3000
		movi r2, 4
		sys  2        ; taint
		li   r1, 0x3000
		movi r2, 4
		sys  5        ; write tainted data out
		halt
	`, e, func(env *Env) { env.FileData = []byte("pwd!") })
	var v dift.Violation
	if !errors.As(err, &v) || v.Kind != dift.ViolationLeak {
		t.Fatalf("err = %v, want leak violation", err)
	}
}

func BenchmarkInterpreterLoop(b *testing.B) {
	p := isa.MustAssemble(`
		li r1, 1000000000
	loop:
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`)
	c := New()
	c.Load(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpreterWithDIFT(b *testing.B) {
	p := isa.MustAssemble(`
		li r1, 1000000000
	loop:
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`)
	c := New()
	c.SetTracker(dift.NewEngine(shadow.MustNew(64), policy.Default()))
	c.Load(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStoreOverCachedCodeInvalidatesDecode(t *testing.T) {
	// Execute an instruction (filling the decode cache), overwrite it in
	// memory, and execute it again: the machine must run the new
	// instruction, not the cached decode.
	patch := isa.MustEncode(isa.Instr{Op: isa.MOVI, Rd: 3, Imm: 2})
	src := fmt.Sprintf(`
		jmp  start
	target:	movi r3, 1
		jr   r7
	start:	li   r7, =ret1
		jmp  target
	ret1:	li   r5, %d	; encoded "movi r3, 2"
		li   r6, =target
		stw  r5, [r6+0]
		li   r7, =ret2
		jmp  target
	ret2:	halt
	`, int64(patch))
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := New()
	c.Load(p)
	if _, err := c.Run(context.Background(), 1_000); err != nil {
		t.Fatal(err)
	}
	if c.Regs[3] != 2 {
		t.Fatalf("r3 = %d after store over cached code, want 2 (stale decode executed)", c.Regs[3])
	}
}

func TestSyscallWriteOverCachedCodeInvalidatesDecode(t *testing.T) {
	// SysRead writing over cached instructions must invalidate them too.
	patch := isa.MustEncode(isa.Instr{Op: isa.MOVI, Rd: 3, Imm: 7})
	var fileData [4]byte
	binary.LittleEndian.PutUint32(fileData[:], patch)
	src := `
		jmp  start
	target:	movi r3, 1
		jr   r7
	start:	li   r7, =ret1
		jmp  target
	ret1:	li   r1, =target
		movi r2, 4
		sys  2		; read 4 file bytes over "movi r3, 1"
		li   r7, =ret2
		jmp  target
	ret2:	halt
	`
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := New()
	c.Env.FileData = fileData[:]
	c.Load(p)
	if _, err := c.Run(context.Background(), 1_000); err != nil {
		t.Fatal(err)
	}
	if c.Regs[3] != 7 {
		t.Fatalf("r3 = %d after syscall write over cached code, want 7", c.Regs[3])
	}
}

func TestStoreWrapsAtTopOfAddressSpace(t *testing.T) {
	// A word store straddling 4 GiB wraps to address 0. The decode-cache
	// page walk used to run off the end of the page space instead of
	// wrapping (found by the differential checker; see
	// testdata/diffcheck/panic-reference-seed1945755011180343852.repro).
	c, err := run(t, `
		movi r1, -2        ; 0xFFFFFFFE
		li   r2, 0x11223344
		stw  r2, [r1]
		ldw  r3, [r1]
		halt
	`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[3] != 0x11223344 {
		t.Fatalf("wrapped store/load round trip = %#x", c.Regs[3])
	}
	if c.Mem.LoadByte(0xFFFF_FFFE) != 0x44 || c.Mem.LoadByte(0) != 0x22 {
		t.Fatal("wrapped store misplaced bytes")
	}
}

func TestWrappedStoreOverCachedCodeFlushes(t *testing.T) {
	// A wrapped store range cannot be expressed as an InvalidateRange
	// interval, so when it covers a cached code page the decode cache must
	// flush. Plant code at address 0, execute it (caching page 0), then
	// patch its immediate with a store that wraps around 4 GiB; the second
	// execution must see the new encoding, not the cached decode.
	c, err := run(t, `
		li   r5, =after
		li   r1, 0x02300007  ; movi r3, 7
		stw  r1, [r0]
		li   r1, 0x1F050000  ; jr r5
		stw  r1, [r0+4]
		movi r6, 0
		jr   r6              ; first run of the planted code: r3 = 7
	after:
		movi r7, 9
		beq  r3, r7, done    ; second pass sees the patched immediate
		li   r2, 0x00090000  ; bytes 2,3 land at addresses 0,1: imm 7 -> 9
		movi r4, -2          ; 0xFFFFFFFE
		stw  r2, [r4]        ; wraps over the cached code page
		jr   r6              ; re-execute: must yield r3 = 9
	done:
		halt
	`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[3] != 9 {
		t.Fatalf("r3 = %d after patching cached code via wrapped store, want 9", c.Regs[3])
	}
}

func TestSysWriteLengthClamped(t *testing.T) {
	// sys 5 with an untrusted ~4 GiB length used to walk the whole address
	// space in the leak check and allocate 4 GiB (found by the differential
	// checker; see testdata/diffcheck/hang-syswrite-seed5296691041779947934
	// .repro). The OS model now performs a short write of at most
	// MaxSysWriteBytes, returning the count like write(2).
	e := dift.NewEngine(shadow.MustNew(64), policy.Default())
	c, err := run(t, `
		movi r1, -1     ; buf  = 0xFFFFFFFF
		movi r2, -1     ; len  = 0xFFFFFFFF
		sys  5          ; write
		halt
	`, e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[1] != MaxSysWriteBytes {
		t.Fatalf("r1 = %d, want short-write count %d", c.Regs[1], MaxSysWriteBytes)
	}
	if n := c.Env.Output.Len(); n != MaxSysWriteBytes {
		t.Fatalf("output length = %d, want %d", n, MaxSysWriteBytes)
	}
}

// TestResetMatchesNew runs a program whose code sits on page 0x20, resets
// the CPU, and checks it against New: architectural state, counters, the
// environment, and an empty code-page map. It then runs, on both, a loop
// storing over page 0x20 — a self-modifying store, and a fast-loop exit, only
// if a stale code-page mark survived the reset — and compares the outcome.
func TestResetMatchesNew(t *testing.T) {
	a, err := isa.Assemble("movi r1, 1\n movi r2, 2\n add r3, r1, r2\n sys 2\n halt")
	if err != nil {
		t.Fatal(err)
	}
	a.Origin, a.Entry = 0x20000, 0x20000
	b, err := isa.Assemble(`
		li   r1, 0x20000
		movi r2, 64
	loop:	stw  r2, [r1]
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	c.Env.FileData = []byte("xyz")
	c.Load(a)
	if _, err := c.Run(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	fresh := New()

	type state struct {
		regs                              [isa.NumRegs]uint32
		pc                                uint32
		instret, cycles                   uint64
		halted                            bool
		exit                              uint32
		decodeHits, decodeMisses          uint64
		fastEntries, fastExits, fastSteps uint64
		allocated                         int
		tlcHits, tlcMisses                uint64
		fileOff, reqIdx, curReq, curConn  int
		output, codeMarks                 int
	}
	stateOf := func(c *CPU) state {
		s := state{regs: c.Regs, pc: c.PC, instret: c.Instret(), cycles: c.Cycles(), halted: c.Halted(), exit: c.ExitCode()}
		s.decodeHits, s.decodeMisses = c.DecodeCacheStats()
		s.fastEntries, s.fastExits, s.fastSteps = c.FastLoopStats()
		s.allocated = c.Mem.PagesAllocated()
		s.tlcHits, s.tlcMisses = c.Mem.TranslationCacheStats()
		s.fileOff, s.reqIdx, s.curReq, s.curConn = c.Env.fileOff, c.Env.reqIdx, c.Env.curReq, c.Env.curConn
		s.output, s.codeMarks = c.Env.Output.Len(), c.codePages.Len()
		return s
	}
	if got, want := stateOf(c), stateOf(fresh); got != want {
		t.Fatalf("after Reset:\n%+v\nNew:\n%+v", got, want)
	}
	for _, cpu := range []*CPU{c, fresh} {
		cpu.Load(b)
		if _, err := cpu.Run(context.Background(), 10_000); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := stateOf(c), stateOf(fresh); got != want {
		t.Fatalf("run after Reset:\n%+v\nafter New:\n%+v", got, want)
	}
	c.Load(a)
	if n := c.codePages.Len(); n != 0 {
		t.Fatalf("Load left %d code-page marks", n)
	}
}
