package engine_test

import (
	"context"
	"testing"

	"latch/internal/engine"
	"latch/internal/isa"
	"latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/workload"
)

func TestReferenceRunsProgram(t *testing.T) {
	ref, err := engine.NewReference(policy.Default())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Machine == nil || ref.Engine == nil || ref.Shadow == nil {
		t.Fatal("reference wiring incomplete")
	}
	prog, err := isa.Assemble(`
		movi r1, 42
		sys  1       ; exit(42)
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.RunProgram(context.Background(), prog, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 42 || res.Steps != 2 || res.Violation != nil {
		t.Fatalf("result = %+v, want exit code 42 after 2 steps", res)
	}
}

func TestReferenceTracksTaintPrecisely(t *testing.T) {
	ref, err := engine.NewReference(policy.Default())
	if err != nil {
		t.Fatal(err)
	}
	ref.Machine.Env.FileData = []byte{0x10, 0x20, 0x30, 0x40}
	prog, err := isa.Assemble(`
		li   r1, 0x3000
		movi r2, 4
		sys  2           ; read 4 tainted file bytes to 0x3000 (r1 = count)
		li   r1, 0x3000
		ldw  r3, [r1]
		jr   r3          ; tainted indirect jump: policy violation
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := ref.RunProgram(context.Background(), prog, 1000); err != nil || res.Violation == nil {
		t.Fatalf("tainted indirect jump not detected: err = %v", err)
	}
	if !ref.Shadow.RangeTainted(0x3000, 4) {
		t.Fatal("file input not tainted in reference shadow")
	}
}

// TestReferenceRunsStepOnly: the reference is the oracle the fast paths are
// checked against, so it must not run them. A clean counting loop, which
// any FastTracker-driven machine would run in the fast loop, leaves the
// reference's fast-loop counters at zero while its engine still counts
// every instruction.
func TestReferenceRunsStepOnly(t *testing.T) {
	ref, err := engine.NewReference(policy.Default())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Assemble(`
		movi r2, 0
		movi r3, 100
	loop:
		addi r2, r2, 1
		blt  r2, r3, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.RunProgram(context.Background(), prog, 1000); err != nil {
		t.Fatal(err)
	}
	if entries, exits, steps := ref.Machine.FastLoopStats(); entries|exits|steps != 0 {
		t.Fatalf("reference ran the fast loop: entries=%d exits=%d steps=%d", entries, exits, steps)
	}
	if got, want := ref.Engine.InstructionsTotal(), ref.Machine.Instret(); got != want || want != 203 {
		t.Fatalf("engine committed %d of %d instructions, want 203", got, want)
	}
}

func TestRunProfileSessionSnapshot(t *testing.T) {
	p, err := workload.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	run := func() engine.Snapshot {
		b := &fakeBackend{cfg: latch.DefaultConfig()}
		_, s, err := engine.RunProfileSession(context.Background(), b, p, engine.RunOptions{Events: 20_000})
		if err != nil {
			t.Fatal(err)
		}
		if s == nil || s.Module == nil || s.Shadow == nil {
			t.Fatal("session not returned")
		}
		return s.Snapshot()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed snapshots differ:\n%+v\n%+v", a, b)
	}
	if a.Events != 20_000 {
		t.Fatalf("snapshot events = %d, want 20000", a.Events)
	}
	if a.Mode != engine.ModeHardware {
		t.Fatalf("snapshot mode = %v", a.Mode)
	}
}
