package trace

import (
	"testing"
	"testing/quick"
)

func feed(a *EpochAnalyzer, pattern []bool) {
	for i, tainted := range pattern {
		a.Consume(Event{Seq: uint64(i), Tainted: tainted})
	}
	a.Finish()
}

func TestEpochAnalyzerBasic(t *testing.T) {
	a := NewEpochAnalyzer()
	// 150 clean, 1 tainted, 50 clean.
	pattern := make([]bool, 201)
	pattern[150] = true
	feed(a, pattern)
	if a.TotalInstructions() != 201 || a.TaintedInstructions() != 1 {
		t.Fatalf("totals: %d/%d", a.TotalInstructions(), a.TaintedInstructions())
	}
	if a.EpochCount() != 2 {
		t.Fatalf("EpochCount = %d", a.EpochCount())
	}
	if a.LongestEpoch() != 150 {
		t.Fatalf("LongestEpoch = %d", a.LongestEpoch())
	}
	// Bucket 0 (>=100): only the 150-epoch qualifies -> 150/201.
	want := 150.0 / 201.0
	if got := a.EpochShare(0); got != want {
		t.Fatalf("EpochShare(0) = %v, want %v", got, want)
	}
	// Bucket 1 (>=1000): none.
	if got := a.EpochShare(1); got != 0 {
		t.Fatalf("EpochShare(1) = %v, want 0", got)
	}
}

func TestTaintedPercent(t *testing.T) {
	a := NewEpochAnalyzer()
	pattern := make([]bool, 1000)
	for i := 0; i < 20; i++ {
		pattern[i*50] = true
	}
	feed(a, pattern)
	if got := a.TaintedPercent(); got != 2.0 {
		t.Fatalf("TaintedPercent = %v, want 2", got)
	}
	empty := NewEpochAnalyzer()
	empty.Finish()
	if empty.TaintedPercent() != 0 {
		t.Fatal("empty analyzer should report 0%")
	}
}

func TestTrailingEpochCounted(t *testing.T) {
	a := NewEpochAnalyzer()
	pattern := make([]bool, 2001)
	pattern[0] = true // 2000 clean instructions afterwards
	feed(a, pattern)
	if a.EpochCount() != 1 {
		t.Fatalf("EpochCount = %d", a.EpochCount())
	}
	// Bucket 1 (>=1000) contains 2000 of 2001 instructions.
	if got, want := a.EpochShare(1), 2000.0/2001.0; got != want {
		t.Fatalf("EpochShare(1) = %v, want %v", got, want)
	}
}

func TestAllTainted(t *testing.T) {
	a := NewEpochAnalyzer()
	feed(a, []bool{true, true, true})
	if a.EpochCount() != 0 || a.TaintedPercent() != 100 {
		t.Fatalf("count=%d pct=%v", a.EpochCount(), a.TaintedPercent())
	}
	for i := range EpochBounds {
		if a.EpochShare(i) != 0 {
			t.Fatalf("EpochShare(%d) nonzero", i)
		}
	}
}

func TestConsumeAfterFinishPanics(t *testing.T) {
	a := NewEpochAnalyzer()
	a.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Consume(Event{})
}

func TestEpochSharesMonotone(t *testing.T) {
	// Shares for longer minimum epochs can never exceed those for shorter.
	f := func(seed []bool) bool {
		a := NewEpochAnalyzer()
		feed(a, seed)
		shares := a.EpochShares()
		for i := 1; i < len(shares); i++ {
			if shares[i] > shares[i-1] {
				return false
			}
		}
		// All shares within [0, 1].
		for _, s := range shares {
			if s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEpochInstructionConservation(t *testing.T) {
	// Tainted + instructions in epochs of >=1 == total. We approximate by
	// checking tainted + sum(epoch lengths) == total via bucket bound 1.
	f := func(seed []bool) bool {
		a := NewEpochAnalyzer()
		// custom histogram probe: total == tainted + clean
		clean := 0
		for _, s := range seed {
			if !s {
				clean++
			}
		}
		feed(a, seed)
		return a.TotalInstructions() == a.TaintedInstructions()+uint64(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
