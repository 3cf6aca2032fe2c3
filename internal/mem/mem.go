// Package mem implements the sparse, paged 32-bit memory used by the LA32
// virtual machine and by the LATCH taint-state machinery. Pages are allocated
// lazily on first write; reads of unallocated memory return zeros without
// allocating. The memory tracks which pages have ever been touched, which is
// the raw input to the paper's page-granularity taint-distribution analysis
// (Tables 3 and 4).
//
// The page table is a flat two-level radix structure — a directory of leaf
// tables indexed by the high bits of the page number, leaves holding page
// pointers indexed by the low bits — fronted by a one-entry last-page
// translation cache, so the common case of consecutive accesses to the same
// page costs one compare and no hashing. The pages-accessed set is a bitmap
// with one bit per page of the 4 GiB space. Nothing on the load/store path
// allocates once the working set's pages exist, and Reset recycles pages
// and leaf tables through free lists instead of handing the structure to
// the garbage collector.
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// PageSize is the size of a memory page in bytes, matching the 4 KiB pages
// the paper's page-level analysis uses.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageCount is the number of pages in the 32-bit address space.
const PageCount = 1 << (32 - PageShift)

// The two-level page table splits the 20-bit page number into a directory
// index (high dirBits) and a leaf index (low leafBits).
const (
	leafBits = 10
	leafSize = 1 << leafBits
	dirBits  = 32 - PageShift - leafBits
	dirSize  = 1 << dirBits
)

// PageNumber returns the page number containing addr.
func PageNumber(addr uint32) uint32 { return addr >> PageShift }

// PageBase returns the first address of the page containing addr.
func PageBase(addr uint32) uint32 { return addr &^ (PageSize - 1) }

// Page is the backing storage of one 4 KiB page.
type Page = [PageSize]byte

// pageLeaf is one leaf table of the two-level page table.
type pageLeaf [leafSize]*Page

// bitmapWords is the size of a one-bit-per-page bitmap in 64-bit words.
const bitmapWords = PageCount / 64

// Memory is a sparse 32-bit byte-addressable memory.
//
// The zero value is not usable; call New.
type Memory struct {
	dir [dirSize]*pageLeaf

	// One-entry translation cache: the page the last successful lookup
	// resolved to. lastPage == nil means the entry is invalid.
	lastPN   uint32
	lastPage *Page
	tlcHits  uint64
	tlcMiss  uint64

	// accessed records every page ever read or written, including reads of
	// unallocated pages (the paper counts "pages accessed", not "pages
	// allocated"), as a one-bit-per-page bitmap. dirtyWords lists the bitmap
	// words holding at least one set bit so Reset clears only what was used.
	accessed      []uint64
	dirtyWords    []uint32
	accessedCount int
	// trackAccess can be disabled for raw speed when page statistics are not
	// needed.
	trackAccess bool

	// allocated lists the page numbers currently backed by storage, in
	// allocation order; free holds zeroed pages and freeLeaves emptied leaf
	// tables, both recycled by Reset.
	allocated  []uint32
	free       []*Page
	freeLeaves []*pageLeaf
}

// New returns an empty memory with page-access tracking enabled.
func New() *Memory {
	return &Memory{
		accessed:    make([]uint64, bitmapWords),
		trackAccess: true,
	}
}

// SetAccessTracking enables or disables the pages-accessed bookkeeping.
func (m *Memory) SetAccessTracking(on bool) { m.trackAccess = on }

func (m *Memory) note(addr uint32) {
	if !m.trackAccess {
		return
	}
	m.notePage(PageNumber(addr))
}

func (m *Memory) notePage(pn uint32) {
	w, bit := pn>>6, uint64(1)<<(pn&63)
	if m.accessed[w]&bit == 0 {
		if m.accessed[w] == 0 {
			m.dirtyWords = append(m.dirtyWords, w)
		}
		m.accessed[w] |= bit
		m.accessedCount++
	}
}

func (m *Memory) notePageRange(addr uint32, n int) {
	if !m.trackAccess || n <= 0 {
		return
	}
	// The end address wraps at 4 GiB exactly like the access itself does
	// (see Read/Write), so the page walk must wrap too: a range straddling
	// the top of the address space continues at page 0.
	first := PageNumber(addr)
	last := PageNumber(addr + uint32(n-1))
	for p := first; ; p = (p + 1) % PageCount {
		m.notePage(p)
		if p == last {
			break
		}
	}
}

// page returns the page for addr, allocating it if create is set. The
// translation cache makes repeated lookups of one page a single compare.
func (m *Memory) page(addr uint32, create bool) *Page {
	pn := PageNumber(addr)
	if pn == m.lastPN && m.lastPage != nil {
		m.tlcHits++
		return m.lastPage
	}
	m.tlcMiss++
	leaf := m.dir[pn>>leafBits]
	if leaf == nil {
		if !create {
			return nil
		}
		if n := len(m.freeLeaves); n > 0 {
			leaf = m.freeLeaves[n-1]
			m.freeLeaves[n-1] = nil
			m.freeLeaves = m.freeLeaves[:n-1]
		} else {
			leaf = new(pageLeaf)
		}
		m.dir[pn>>leafBits] = leaf
	}
	p := leaf[pn&(leafSize-1)]
	if p == nil {
		if !create {
			return nil
		}
		if n := len(m.free); n > 0 {
			p = m.free[n-1]
			m.free[n-1] = nil
			m.free = m.free[:n-1]
		} else {
			p = new(Page)
		}
		leaf[pn&(leafSize-1)] = p
		m.allocated = append(m.allocated, pn)
	}
	m.lastPN, m.lastPage = pn, p
	return p
}

// TranslationCacheStats returns the hit and miss counts of the one-entry
// last-page translation cache since creation (or the last ResetStats).
func (m *Memory) TranslationCacheStats() (hits, misses uint64) {
	return m.tlcHits, m.tlcMiss
}

// ResetStats zeroes the translation-cache counters without touching
// contents or the pages-accessed set.
func (m *Memory) ResetStats() { m.tlcHits, m.tlcMiss = 0, 0 }

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint32) byte {
	m.note(addr)
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr%PageSize]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint32, b byte) {
	m.note(addr)
	m.page(addr, true)[addr%PageSize] = b
}

// Read fills buf with the bytes starting at addr, wrapping at the 4 GiB
// boundary like the hardware would.
func (m *Memory) Read(addr uint32, buf []byte) {
	m.notePageRange(addr, len(buf))
	for len(buf) > 0 {
		off := addr % PageSize
		n := PageSize - off
		if int(n) > len(buf) {
			n = uint32(len(buf))
		}
		p := m.page(addr, false)
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
	m.notePageRange(addr, len(buf))
	for len(buf) > 0 {
		off := addr % PageSize
		n := PageSize - off
		if int(n) > len(buf) {
			n = uint32(len(buf))
		}
		copy(m.page(addr, true)[off:off+n], buf[:n])
		buf = buf[n:]
		addr += n
	}
}

// LoadWord returns the little-endian 32-bit word at addr. Unaligned access
// is permitted, as on x86 (the paper's evaluation ISA).
func (m *Memory) LoadWord(addr uint32) uint32 {
	if off := addr % PageSize; off <= PageSize-4 {
		m.note(addr)
		if p := m.page(addr, false); p != nil {
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
		m.note(addr)
		binary.LittleEndian.PutUint32(m.page(addr, true)[off:off+4], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Write(addr, b[:])
}

// LoadHalf returns the little-endian 16-bit value at addr.
func (m *Memory) LoadHalf(addr uint32) uint16 {
	if off := addr % PageSize; off <= PageSize-2 {
		m.note(addr)
		if p := m.page(addr, false); p != nil {
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
		m.note(addr)
		binary.LittleEndian.PutUint16(m.page(addr, true)[off:off+2], v)
		return
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	m.Write(addr, b[:])
}

// PagesAccessed returns the number of distinct pages ever read or written.
func (m *Memory) PagesAccessed() int { return m.accessedCount }

// AccessedPages returns the sorted page numbers ever read or written.
func (m *Memory) AccessedPages() []uint32 {
	out := make([]uint32, 0, m.accessedCount)
	for w, word := range m.accessed {
		for ; word != 0; word &= word - 1 {
			out = append(out, uint32(w)<<6+uint32(bits.TrailingZeros64(word)))
		}
	}
	return out
}

// PagesAllocated returns the number of pages backed by storage.
func (m *Memory) PagesAllocated() int { return len(m.allocated) }

// Reset discards all contents and statistics. The backing pages are zeroed
// and recycled onto a free list rather than released, so repopulating after
// a Reset allocates nothing. The leaf tables that mapped them are emptied
// and recycled too, so what a Memory keeps across Resets is bounded by the
// most pages one run allocated, not by every region runs ever touched.
func (m *Memory) Reset() {
	for _, pn := range m.allocated {
		leaf := m.dir[pn>>leafBits]
		p := leaf[pn&(leafSize-1)]
		*p = Page{}
		leaf[pn&(leafSize-1)] = nil
		m.free = append(m.free, p)
	}
	// Every leaf maps only allocated pages, so each is empty now.
	for _, pn := range m.allocated {
		if leaf := m.dir[pn>>leafBits]; leaf != nil {
			m.dir[pn>>leafBits] = nil
			m.freeLeaves = append(m.freeLeaves, leaf)
		}
	}
	m.allocated = m.allocated[:0]
	for _, w := range m.dirtyWords {
		m.accessed[w] = 0
	}
	m.dirtyWords = m.dirtyWords[:0]
	m.accessedCount = 0
	m.lastPage = nil
	m.tlcHits, m.tlcMiss = 0, 0
}

// String summarizes the memory for debugging.
func (m *Memory) String() string {
	return fmt.Sprintf("mem{allocated=%d pages, accessed=%d pages}", len(m.allocated), m.accessedCount)
}
