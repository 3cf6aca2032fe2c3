package cache

import (
	"fmt"
	"math/bits"

	"latch/internal/mem"
)

// TLB models a translation lookaside buffer whose entries carry page-level
// taint bits, the first-level filter of the LATCH taint-checking stack
// (§4.2). Each entry divides its 4 KiB page into PageDomains multi-kilobyte
// page-level taint domains, one bit each; with 64-byte taint domains and
// 32-bit CTT words each page-level domain corresponds to a single CTT word
// (2 KiB), so a page carries two bits — the configuration the complexity
// analysis in §6.4 assumes.
//
// On a TLB miss the entry is filled from the page table, which in this model
// means asking the backing taint state for the current page taint bits; the
// paper treats that cost as part of the ordinary page-walk the processor
// performs anyway.
type TLB struct {
	cache       *Cache
	pageDomains int
	// pdShift is log2 of the page-level domain size: a page offset shifted
	// right by it is the offset's taint bit.
	pdShift uint
	fills   uint64
}

// NewTLB builds a TLB with the given number of entries (a positive power of
// two) organized fully associatively, carrying pageDomains taint bits per
// entry (a power of two in [1,32], one bit per page-level domain, so the
// domains tile the page exactly). Invalid arguments are reported as errors;
// use MustNewTLB for statically known configurations.
func NewTLB(entries, pageDomains int) (*TLB, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("tlb: entries %d must be a positive power of two", entries)
	}
	if pageDomains <= 0 || pageDomains > 32 || pageDomains&(pageDomains-1) != 0 {
		return nil, fmt.Errorf("tlb: pageDomains %d must be a power of two in [1,32]", pageDomains)
	}
	c, err := New(Config{Name: "tlb", Sets: 1, Ways: entries, LineSize: mem.PageSize})
	if err != nil {
		return nil, err
	}
	shift := uint(mem.PageShift - bits.TrailingZeros(uint(pageDomains)))
	return &TLB{cache: c, pageDomains: pageDomains, pdShift: shift}, nil
}

// MustNewTLB is NewTLB panicking on error.
func MustNewTLB(entries, pageDomains int) *TLB {
	t, err := NewTLB(entries, pageDomains)
	if err != nil {
		panic(err)
	}
	return t
}

// PageDomains returns the number of page-level taint domains per page.
func (t *TLB) PageDomains() int { return t.pageDomains }

// PageDomainSize returns the size in bytes of one page-level taint domain.
func (t *TLB) PageDomainSize() uint32 { return 1 << t.pdShift }

// pageDomainOf returns the index within the page of the page-level domain
// containing addr.
func (t *TLB) pageDomainOf(addr uint32) uint {
	return uint((addr % mem.PageSize) >> t.pdShift)
}

// Access translates addr. On a miss the entry is filled with taint bits
// obtained from pageBits, which receives the page number and must return the
// current page-level taint bit vector (bit i covers the i-th page-level
// domain). It returns whether the page-level domain containing addr is
// marked tainted and whether the access hit the TLB.
func (t *TLB) Access(addr uint32, pageBits func(pn uint32) uint32) (domainTainted, hit bool) {
	line, hit, _ := t.cache.Access(addr)
	if !hit {
		t.fills++
		line.Data = pageBits(mem.PageNumber(addr))
	}
	return line.Data&(1<<t.pageDomainOf(addr)) != 0, hit
}

// UpdateTaintBit sets or clears the taint bit of the page-level domain
// containing addr, if the page is resident. Hardware performs this as part
// of the chained multi-granular taint update (Figure 12); misses are
// ignored because a later fill re-reads the authoritative page table.
func (t *TLB) UpdateTaintBit(addr uint32, tainted bool) {
	line, ok := t.cache.Probe(addr)
	if !ok {
		return
	}
	bit := uint32(1) << t.pageDomainOf(addr)
	if tainted {
		line.Data |= bit
	} else {
		line.Data &^= bit
	}
}

// InvalidatePage drops the entry for the page containing addr.
func (t *TLB) InvalidatePage(addr uint32) { t.cache.Invalidate(addr) }

// Resident returns the number of valid entries.
func (t *TLB) Resident() int { return t.cache.ResidentBlocks() }

// Flush empties the TLB.
func (t *TLB) Flush() { t.cache.Flush(nil) }

// Stats returns the underlying cache statistics.
func (t *TLB) Stats() Stats { return t.cache.Stats() }

// ResetStats zeroes the statistics.
func (t *TLB) ResetStats() {
	t.cache.ResetStats()
	t.fills = 0
}

// Fills returns the number of entry fills performed.
func (t *TLB) Fills() uint64 { return t.fills }
