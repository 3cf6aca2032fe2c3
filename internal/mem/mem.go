// Package mem implements the sparse, paged 32-bit memory used by the LA32
// virtual machine, and the page map it and the shadow taint memory share.
// Pages are allocated lazily on first write; data reads of unallocated memory
// return zeros without allocating. Mapped tells a zero read from an
// unallocated page apart from zeros stored on a mapped one, without counting
// a lookup — the VM's instruction fetch uses it to fault on never-mapped
// pages.
//
// Table is the page map: a flat two-level radix table fronted by a
// translation cache, whose Reset recycles pages and leaf tables through
// free lists, and whose entries may alias another entry's page
// copy-on-write. PageSet is a one-bit-per-page set that clears only the
// words it set. Memory runs on a Table of byte pages that never aliases, so
// nothing on its load/store path allocates once the working set's pages
// exist.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the size of a memory page in bytes, matching the 4 KiB pages
// the paper's page-level analysis uses.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageCount is the number of pages in the 32-bit address space.
const PageCount = 1 << (32 - PageShift)

// PageNumber returns the page number containing addr.
func PageNumber(addr uint32) uint32 { return addr >> PageShift }

// Page is the backing storage of one 4 KiB page.
type Page = [PageSize]byte

// Memory is a sparse 32-bit byte-addressable memory. The zero value is an
// empty memory.
type Memory struct {
	pages Table[Page]
}

// New returns an empty memory.
func New() *Memory { return new(Memory) }

// TranslationCacheStats returns the hit and miss counts of the one-entry
// last-page translation cache since creation or the last Reset.
func (m *Memory) TranslationCacheStats() (hits, misses uint64) { return m.pages.Stats() }

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint32) byte {
	p := m.pages.Lookup(PageNumber(addr))
	if p == nil {
		return 0
	}
	return p[addr%PageSize]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint32, b byte) {
	m.pages.Get(PageNumber(addr))[addr%PageSize] = b
}

// Read fills buf with the bytes starting at addr, wrapping at the 4 GiB
// boundary like the hardware would.
func (m *Memory) Read(addr uint32, buf []byte) {
	for len(buf) > 0 {
		off := addr % PageSize
		n := PageSize - off
		if int(n) > len(buf) {
			n = uint32(len(buf))
		}
		p := m.pages.Lookup(PageNumber(addr))
		if p == nil {
			for i := uint32(0); i < n; i++ {
				buf[i] = 0
			}
		} else {
			copy(buf[:n], p[off:off+n])
		}
		buf = buf[n:]
		addr += n
	}
}

// Write stores buf at addr, wrapping at the 4 GiB boundary.
func (m *Memory) Write(addr uint32, buf []byte) {
	for len(buf) > 0 {
		off := addr % PageSize
		n := PageSize - off
		if int(n) > len(buf) {
			n = uint32(len(buf))
		}
		copy(m.pages.Get(PageNumber(addr))[off:off+n], buf[:n])
		buf = buf[n:]
		addr += n
	}
}

// LoadWord returns the little-endian 32-bit word at addr. Unaligned access
// is permitted, as on x86 (the paper's evaluation ISA).
func (m *Memory) LoadWord(addr uint32) uint32 {
	if off := addr % PageSize; off <= PageSize-4 {
		if p := m.pages.Lookup(PageNumber(addr)); p != nil {
			return binary.LittleEndian.Uint32(p[off : off+4])
		}
		return 0
	}
	var b [4]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// StoreWord stores v little-endian at addr.
func (m *Memory) StoreWord(addr uint32, v uint32) {
	if off := addr % PageSize; off <= PageSize-4 {
		binary.LittleEndian.PutUint32(m.pages.Get(PageNumber(addr))[off:off+4], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Write(addr, b[:])
}

// LoadHalf returns the little-endian 16-bit value at addr.
func (m *Memory) LoadHalf(addr uint32) uint16 {
	if off := addr % PageSize; off <= PageSize-2 {
		if p := m.pages.Lookup(PageNumber(addr)); p != nil {
			return binary.LittleEndian.Uint16(p[off : off+2])
		}
		return 0
	}
	var b [2]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint16(b[:])
}

// StoreHalf stores v little-endian at addr.
func (m *Memory) StoreHalf(addr uint32, v uint16) {
	if off := addr % PageSize; off <= PageSize-2 {
		binary.LittleEndian.PutUint16(m.pages.Get(PageNumber(addr))[off:off+2], v)
		return
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	m.Write(addr, b[:])
}

// Mapped reports whether the page holding addr is backed by storage. It is
// not counted in TranslationCacheStats and leaves the translation cache as it
// is.
func (m *Memory) Mapped(addr uint32) bool { return m.pages.Mapped(PageNumber(addr)) }

// PagesAllocated returns the number of pages backed by storage.
func (m *Memory) PagesAllocated() int { return m.pages.Len() }

// Reset discards all contents and the translation-cache counts. The backing
// pages are zeroed and kept for reuse rather than released, so repopulating
// after a Reset allocates nothing, and what a Memory keeps across Resets is
// bounded by the most pages one run allocated (see Table).
func (m *Memory) Reset() { m.pages.Reset(func(p *Page) { *p = Page{} }) }

// String summarizes the memory for debugging.
func (m *Memory) String() string {
	return fmt.Sprintf("mem{allocated=%d pages}", m.pages.Len())
}
