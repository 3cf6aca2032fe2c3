package cache

import (
	"testing"

	"latch/internal/mem"
)

func TestNewTLBValidation(t *testing.T) {
	if _, err := NewTLB(128, 0); err == nil {
		t.Error("pageDomains 0 accepted")
	}
	if _, err := NewTLB(128, 33); err == nil {
		t.Error("pageDomains 33 accepted")
	}
	// 3 domains cannot tile a 4 KiB page: offset 4095 would map to bit 3,
	// which no fill sets, so a tainted last domain would read clean.
	if _, err := NewTLB(128, 3); err == nil {
		t.Error("non-power-of-two pageDomains 3 accepted")
	}
	if _, err := NewTLB(0, 2); err == nil {
		t.Error("0 entries accepted")
	}
	for _, bad := range []int{-4, 3, 48, 100} {
		if _, err := NewTLB(bad, 2); err == nil {
			t.Errorf("non-power-of-two entry count %d accepted", bad)
		}
	}
	tlb, err := NewTLB(128, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tlb.PageDomains() != 2 || tlb.PageDomainSize() != 2048 {
		t.Fatalf("geometry: domains=%d size=%d", tlb.PageDomains(), tlb.PageDomainSize())
	}
}

func TestTLBPageDomainExtremes(t *testing.T) {
	// PageDomains == 1: one bit covers the whole page, every offset maps to
	// bit 0.
	one := MustNewTLB(4, 1)
	if one.PageDomainSize() != mem.PageSize {
		t.Fatalf("pd=1 domain size = %d", one.PageDomainSize())
	}
	bits := func(uint32) uint32 { return 0b1 }
	for _, off := range []uint32{0, 1, 2047, 2048, mem.PageSize - 1} {
		if tainted, _ := one.Access(off, bits); !tainted {
			t.Fatalf("pd=1: offset %d not covered by bit 0", off)
		}
	}

	// PageDomains == 32: 128-byte page domains, bit index == offset/128.
	many := MustNewTLB(4, 32)
	if many.PageDomainSize() != 128 {
		t.Fatalf("pd=32 domain size = %d", many.PageDomainSize())
	}
	// Only bit 31 (the last 128 bytes of the page) is tainted.
	last := func(uint32) uint32 { return 1 << 31 }
	if tainted, _ := many.Access(mem.PageSize-128, last); !tainted {
		t.Fatal("pd=32: first byte of last domain not tainted")
	}
	if tainted, _ := many.Access(mem.PageSize-1, last); !tainted {
		t.Fatal("pd=32: last byte of page not tainted")
	}
	if tainted, _ := many.Access(mem.PageSize-129, last); tainted {
		t.Fatal("pd=32: byte below the last domain reported tainted")
	}
	// The top of the address space maps to bit 31 of the last page.
	if tainted, _ := many.Access(0xFFFF_FFFF, last); !tainted {
		t.Fatal("pd=32: top byte of address space not tainted")
	}
}

func TestTLBPageBoundaryStraddleFills(t *testing.T) {
	// The two bytes around a page boundary belong to different pages: each
	// side performs its own fill with its own page's bits, and the taint
	// verdict flips exactly at the boundary.
	tlb := MustNewTLB(4, 2)
	fills := map[uint32]int{}
	bits := func(pn uint32) uint32 {
		fills[pn]++
		if pn == 1 {
			return 0b01 // only the first half of page 1 is tainted
		}
		return 0
	}
	if tainted, hit := tlb.Access(mem.PageSize-1, bits); hit || tainted {
		t.Fatalf("last byte of page 0: tainted=%v hit=%v", tainted, hit)
	}
	if tainted, hit := tlb.Access(mem.PageSize, bits); hit || !tainted {
		t.Fatalf("first byte of page 1: tainted=%v hit=%v", tainted, hit)
	}
	if fills[0] != 1 || fills[1] != 1 {
		t.Fatalf("fills per page = %v, want one each", fills)
	}
	// Re-touching both sides hits without refilling.
	tlb.Access(mem.PageSize-1, bits)
	tlb.Access(mem.PageSize, bits)
	if fills[0] != 1 || fills[1] != 1 {
		t.Fatalf("straddle re-access refilled: %v", fills)
	}
	// Within page 1, the verdict flips at the page-domain boundary too.
	if tainted, _ := tlb.Access(mem.PageSize+2047, bits); !tainted {
		t.Fatal("end of tainted page domain reported clean")
	}
	if tainted, _ := tlb.Access(mem.PageSize+2048, bits); tainted {
		t.Fatal("clean page domain reported tainted")
	}
}

func TestTLBFillAndFilter(t *testing.T) {
	tlb := MustNewTLB(4, 2)
	fills := 0
	// Page 0: first half tainted (bit 0), second half clean.
	bits := func(pn uint32) uint32 {
		fills++
		if pn == 0 {
			return 0b01
		}
		return 0
	}
	tainted, hit := tlb.Access(100, bits) // page 0, domain 0
	if hit || !tainted {
		t.Fatalf("first access: tainted=%v hit=%v", tainted, hit)
	}
	tainted, hit = tlb.Access(3000, bits) // page 0, domain 1
	if !hit || tainted {
		t.Fatalf("second access: tainted=%v hit=%v", tainted, hit)
	}
	tainted, hit = tlb.Access(mem.PageSize+5, bits) // page 1
	if hit || tainted {
		t.Fatalf("page 1: tainted=%v hit=%v", tainted, hit)
	}
	if fills != 2 || tlb.Fills() != 2 {
		t.Fatalf("fills = %d / %d", fills, tlb.Fills())
	}
}

func TestTLBUpdateTaintBit(t *testing.T) {
	tlb := MustNewTLB(4, 2)
	zero := func(uint32) uint32 { return 0 }
	tlb.Access(0, zero)
	tlb.UpdateTaintBit(100, true) // domain 0 of page 0
	if tainted, hit := tlb.Access(50, zero); !hit || !tainted {
		t.Fatal("update not visible")
	}
	if tainted, _ := tlb.Access(3000, zero); tainted {
		t.Fatal("update leaked to other page domain")
	}
	tlb.UpdateTaintBit(100, false)
	if tainted, _ := tlb.Access(50, zero); tainted {
		t.Fatal("clear not visible")
	}
	// Updates to non-resident pages are dropped silently.
	tlb.UpdateTaintBit(10*mem.PageSize, true)
	if tainted, hit := tlb.Access(10*mem.PageSize, zero); hit || tainted {
		t.Fatal("non-resident update should be a no-op")
	}
}

func TestTLBEvictionRefill(t *testing.T) {
	tlb := MustNewTLB(2, 2)
	calls := map[uint32]int{}
	bits := func(pn uint32) uint32 {
		calls[pn]++
		return 0b11
	}
	tlb.Access(0*mem.PageSize, bits)
	tlb.Access(1*mem.PageSize, bits)
	tlb.Access(2*mem.PageSize, bits) // evicts page 0
	if tainted, hit := tlb.Access(0, bits); hit || !tainted {
		t.Fatal("page 0 should refill with fresh bits")
	}
	if calls[0] != 2 {
		t.Fatalf("page 0 filled %d times, want 2", calls[0])
	}
}

func TestTLBInvalidateAndFlush(t *testing.T) {
	tlb := MustNewTLB(4, 2)
	zero := func(uint32) uint32 { return 0 }
	tlb.Access(0, zero)
	tlb.Access(mem.PageSize, zero)
	tlb.InvalidatePage(0)
	if _, hit := tlb.Access(0, zero); hit {
		t.Fatal("invalidated page hit")
	}
	tlb.Flush()
	if _, hit := tlb.Access(mem.PageSize, zero); hit {
		t.Fatal("flushed page hit")
	}
	tlb.ResetStats()
	if tlb.Stats().Accesses != 0 || tlb.Fills() != 0 {
		t.Fatal("ResetStats incomplete")
	}
}
