package dift

import (
	"errors"
	"testing"

	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/telemetry"
)

func TestViolationErrorChain(t *testing.T) {
	cf := Violation{Kind: ViolationControlFlow, PC: 0x40, Addr: 0x80, Tag: shadow.MustLabel(0)}
	leak := Violation{Kind: ViolationLeak, PC: 0x44, Addr: 0x3000, Tag: shadow.MustLabel(1)}

	if !errors.Is(cf, ErrControlFlow) {
		t.Error("control-flow violation does not match ErrControlFlow")
	}
	if errors.Is(cf, ErrLeak) {
		t.Error("control-flow violation matches ErrLeak")
	}
	if !errors.Is(leak, ErrLeak) {
		t.Error("leak violation does not match ErrLeak")
	}

	// errors.As through a wrapping layer recovers the full struct.
	wrapped := errors.Join(errors.New("run failed"), cf)
	var v Violation
	if !errors.As(wrapped, &v) || v.PC != 0x40 {
		t.Errorf("errors.As through wrap: got %+v", v)
	}
	if !errors.Is(wrapped, ErrControlFlow) {
		t.Error("errors.Is through wrap failed")
	}
}

func TestEngineEmitsViolations(t *testing.T) {
	sh := shadow.MustNew(64)
	pol := policy.Default()
	pol.CheckLeak = true
	pol.FailFast = false
	e := NewEngine(sh, pol)
	mx := telemetry.NewMetrics()
	e.SetObserver(mx)

	e.SetRegTaint(3, splat(shadow.MustLabel(0)))
	if err := e.IndirectTarget(0x10, 3, 0x2000); err != nil {
		t.Fatalf("FailFast=false returned %v", err)
	}
	sh.SetRange(0x3000, 8, shadow.MustLabel(1))
	if err := e.Output(0x14, 0x3000, 8); err != nil {
		t.Fatalf("FailFast=false returned %v", err)
	}
	// Clean uses emit nothing.
	if err := e.IndirectTarget(0x18, 4, 0x2000); err != nil {
		t.Fatal(err)
	}

	s := mx.Snapshot()
	if s.ControlFlowViolations != 1 || s.LeakViolations != 1 {
		t.Errorf("violations = %d/%d, want 1/1", s.ControlFlowViolations, s.LeakViolations)
	}
	if got := len(e.Violations()); got != 2 {
		t.Errorf("recorded %d violations, want 2", got)
	}
}

func TestEngineEmitsFailFastViolation(t *testing.T) {
	sh := shadow.MustNew(64)
	e := NewEngine(sh, policy.Default()) // FailFast
	mx := telemetry.NewMetrics()
	e.SetObserver(mx)

	e.SetRegTaint(5, splat(shadow.MustLabel(0)))
	err := e.IndirectTarget(0x20, 5, 0x1000)
	if !errors.Is(err, ErrControlFlow) {
		t.Fatalf("err = %v, want ErrControlFlow chain", err)
	}
	if s := mx.Snapshot(); s.ControlFlowViolations != 1 {
		t.Errorf("observer missed the fail-fast violation: %+v", s)
	}
}
