package isa

import (
	"testing"
	"unsafe"
)

func TestInvalidateRangeOneWordSpan(t *testing.T) {
	// An entry at pc covers [pc, pc+WordSize): a write into that word must
	// drop it, a write just outside it must not.
	for _, wr := range []struct {
		addr uint32
		hit  bool
	}{
		{0x100, true},  // first byte
		{0x103, true},  // last byte
		{0x0FF, false}, // byte before the word
		{0x104, false}, // first byte past the word
	} {
		c := NewDecodeCache(64)
		c.Insert(0x100, Instr{Op: MOVI, Rd: 1, Imm: 5})
		c.InvalidateRange(wr.addr, wr.addr)
		_, ok := c.Probe().At(0x100)
		if ok == wr.hit {
			t.Errorf("write at %#x: entry survived=%v, want dropped=%v", wr.addr, ok, wr.hit)
		}
	}
}

func TestInsertResetsAux(t *testing.T) {
	// Re-inserting a PC (e.g. after invalidation and refill) must drop the
	// owner's stale Aux and Reads stamps along with the old decode.
	c := NewDecodeCache(64)
	e := c.Insert(0x100, Instr{Op: MOVI, Rd: 1, Imm: 5})
	e.Aux, e.Reads = 7, 0x8001
	in := Instr{Op: SUB, Rd: 3, Rs1: 1, Rs2: 1}
	c.Insert(0x100, in)
	e, ok := c.Probe().At(0x100)
	if !ok || e.In != in || e.Aux != 0 || e.Reads != 0 {
		t.Fatalf("Insert left stale slot state: %+v ok=%v", e, ok)
	}
}

// TestDecodeEntrySize pins a slot at 16 bytes: the owner's stamps live in
// what would otherwise be padding, so a probe still touches one slot of a
// cache line.
func TestDecodeEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(DecodeEntry{}); n != 16 {
		t.Fatalf("DecodeEntry is %d bytes, want 16", n)
	}
}

func TestProbeObservesMutations(t *testing.T) {
	c := NewDecodeCache(64)
	p := c.Probe()
	if _, ok := p.At(0x100); ok {
		t.Fatal("probe hit on empty cache")
	}
	in := Instr{Op: MOVI, Rd: 1, Imm: 5}
	c.Insert(0x100, in)
	e, ok := p.At(0x100)
	if !ok || e.In != in {
		t.Fatal("probe does not observe Insert")
	}
	c.InvalidateRange(0x100, 0x103)
	if _, ok = p.At(0x100); ok {
		t.Fatal("probe does not observe invalidation")
	}
}

func TestAddStats(t *testing.T) {
	c := NewDecodeCache(64)
	c.AddStats(5, 2)
	h, m := c.Stats()
	if h != 5 || m != 2 {
		t.Fatalf("Stats = %d/%d, want 5/2", h, m)
	}
}
