package latch

import (
	"testing"
	"testing/quick"
)

func TestCTTBasic(t *testing.T) {
	ctt := NewCTT()
	if ctt.Bit(5) {
		t.Fatal("empty CTT has bit set")
	}
	if !ctt.SetBit(5) {
		t.Fatal("SetBit reported no change")
	}
	if ctt.SetBit(5) {
		t.Fatal("second SetBit reported change")
	}
	if !ctt.Bit(5) {
		t.Fatal("bit not set")
	}
	if ctt.Word(0) != 1<<5 {
		t.Fatalf("Word(0) = %#x", ctt.Word(0))
	}
	if !ctt.ClearBit(5) {
		t.Fatal("ClearBit reported no change")
	}
	if ctt.ClearBit(5) {
		t.Fatal("second ClearBit reported change")
	}
	if ctt.Bit(5) {
		t.Fatal("bit still set")
	}
}

func TestCTTWordPacking(t *testing.T) {
	ctt := NewCTT()
	ctt.SetBit(31)
	ctt.SetBit(32)
	if WordIndex(31) != 0 || WordIndex(32) != 1 {
		t.Fatal("WordIndex wrong")
	}
	if ctt.Word(0) != 1<<31 || ctt.Word(1) != 1 {
		t.Fatalf("words = %#x, %#x", ctt.Word(0), ctt.Word(1))
	}
	if ctt.WordsAllocated() != 2 {
		t.Fatalf("WordsAllocated = %d", ctt.WordsAllocated())
	}
	if got := ctt.WordIndices(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("WordIndices = %v", got)
	}
}

func TestCTTSparseCleanup(t *testing.T) {
	ctt := NewCTT()
	ctt.SetBit(100)
	ctt.ClearBit(100)
	if ctt.WordsAllocated() != 0 {
		t.Fatal("cleared word not freed")
	}
	// Clearing a never-set bit of an absent word.
	if ctt.ClearBit(9999) {
		t.Fatal("ClearBit on absent word reported change")
	}
}

func TestCTTTaintedDomains(t *testing.T) {
	ctt := NewCTT()
	for _, d := range []uint32{0, 1, 31, 32, 1000} {
		ctt.SetBit(d)
	}
	if got := ctt.TaintedDomains(); got != 5 {
		t.Fatalf("TaintedDomains = %d", got)
	}
	// Clearing word 0 drops domains 0, 1 and 31 and keeps the counts exact.
	ctt.clearWords(0, 0)
	if ctt.TaintedDomains() != 2 || ctt.WordsAllocated() != 2 {
		t.Fatalf("after clearing word 0: %d domains in %d words", ctt.TaintedDomains(), ctt.WordsAllocated())
	}
	ctt.clearWords(0, 1<<20)
	if ctt.TaintedDomains() != 0 || ctt.WordsAllocated() != 0 {
		t.Fatal("clearing every word left counts")
	}
}

func TestCTTSetClearProperty(t *testing.T) {
	// Under arbitrary set/clear sequences the CTT matches a reference set.
	type op struct {
		D   uint16
		Set bool
	}
	f := func(ops []op) bool {
		ctt := NewCTT()
		ref := map[uint32]bool{}
		for _, o := range ops {
			d := uint32(o.D)
			if o.Set {
				ctt.SetBit(d)
				ref[d] = true
			} else {
				ctt.ClearBit(d)
				delete(ref, d)
			}
		}
		if ctt.TaintedDomains() != len(ref) {
			return false
		}
		for d := range ref {
			if !ctt.Bit(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
