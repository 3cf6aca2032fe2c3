// Package shadow implements the byte-precise shadow taint memory that backs
// the precise DIFT engine (the role libdft's tagmap plays in the paper).
//
// Beyond byte-granular tags, the shadow maintains two derived summaries that
// LATCH's coarse state is defined over:
//
//   - per-domain tainted-byte counts, where a domain is a fixed power-of-two
//     span of tens of bytes (§4.1 of the paper) — the ground truth for CTT
//     bits and for the clear-bit machinery of §5.1.4/§5.3.1, and
//   - per-page tainted-byte counts — the ground truth for the TLB taint bits
//     of §4.2 and for the page-distribution analysis of Tables 3 and 4.
//
// Domain and page transitions (clean→tainted and tainted→clean) are reported
// through watcher callbacks so the coarse taint table can stay synchronized
// incrementally, exactly as the hardware update logic in Figure 12 does.
//
// Like internal/mem, the tag pages live in a flat two-level page table
// fronted by a one-entry translation cache, the ever-tainted-pages set is a
// bitmap, and Reset recycles pages and leaf tables through free lists — the
// propagate path (Set/Get) performs no hashing and no allocation in steady
// state.
//
// Exported entry points validate their arguments and report invalid ones as
// errors; the Must* variants (MustNew, MustLabel, MustTaintedAt) panic
// instead and are meant for statically known-good values such as
// configuration constants and test fixtures.
package shadow

import (
	"fmt"
	"math/bits"

	"latch/internal/mem"
)

// Tag is a byte-sized taint tag: a bitmask of up to eight taint labels,
// matching libdft's one-byte tags. Zero means untainted.
type Tag uint8

// TagClean is the zero tag.
const TagClean Tag = 0

// Label returns the tag with only label n set, or an error when n is outside
// the representable range 0..7 (one-byte tags hold eight labels, matching
// libdft).
func Label(n int) (Tag, error) {
	if n < 0 || n > 7 {
		return TagClean, fmt.Errorf("shadow: label %d out of range [0,7]", n)
	}
	return Tag(1) << n, nil
}

// MustLabel is Label panicking on error, for statically known label numbers.
func MustLabel(n int) Tag {
	t, err := Label(n)
	if err != nil {
		panic(err)
	}
	return t
}

// Union returns the combined tag, the propagation rule for multi-source
// operations.
func (t Tag) Union(o Tag) Tag { return t | o }

// Tainted reports whether any label is set.
func (t Tag) Tainted() bool { return t != 0 }

// DefaultDomainSize is the taint-domain granularity used throughout the
// paper's main evaluation (64-byte domains; §6.4).
const DefaultDomainSize = 64

// MinDomainSize and MaxDomainSize bound the configurable granularity; the
// paper's Figure 6 sweeps 8..256 bytes.
const (
	MinDomainSize = 8
	MaxDomainSize = mem.PageSize
)

// The two-level tag-page table mirrors internal/mem's geometry: the 20-bit
// page number splits into a directory index (high bits) and a leaf index.
const (
	leafBits = 10
	leafSize = 1 << leafBits
	dirBits  = 32 - mem.PageShift - leafBits
	dirSize  = 1 << dirBits
)

// bitmapWords is the size of a one-bit-per-page bitmap in 64-bit words.
const bitmapWords = mem.PageCount / 64

// maxDomPerPage is the per-page domain count at the smallest granularity;
// domainBytes is sized for it so a page is one allocation at any granularity.
const maxDomPerPage = mem.PageSize / MinDomainSize

type page struct {
	tags         [mem.PageSize]Tag
	domainBytes  [maxDomPerPage]uint16 // tainted bytes per domain; [0:domPerPage) used
	taintedBytes uint16
}

// pageLeaf is one leaf table of the two-level tag-page table.
type pageLeaf [leafSize]*page

// Watcher observes transitions of a coarse unit (domain or page) between the
// clean and tainted states. Units are identified by their global index
// (address >> log2(unit size)).
type Watcher func(unit uint32, tainted bool)

// ByteWatcher observes every byte-level taint-status transition (an address
// changing between clean and tainted). The S-LATCH clear-bit machinery
// subscribes to it: every zero-write to a previously tainted byte asserts
// the domain's clear bit, every taint re-assertion retires it (§5.1.4).
type ByteWatcher func(addr uint32, tainted bool)

// Shadow is a sparse byte-precise taint map over the 32-bit address space.
type Shadow struct {
	dir [dirSize]*pageLeaf

	// One-entry translation cache over the tag pages; lastPage == nil means
	// invalid.
	lastPN   uint32
	lastPage *page
	tlcHits  uint64
	tlcMiss  uint64

	domainSize uint32
	domShift   uint
	domPerPage uint32

	taintedBytes uint64 // global count

	onDomain Watcher
	onPage   Watcher
	onByte   ByteWatcher

	// everTainted records pages that have held taint at any point; the
	// paper's Tables 3/4 count pages that *received* tainted data during the
	// run, not pages tainted at exit. It is a one-bit-per-page bitmap with a
	// dirty-word list so Reset clears only what was used.
	everTainted      []uint64
	everDirtyWords   []uint32
	everTaintedCount int

	// allocated lists tag pages currently backed by storage; free holds
	// zeroed pages and freeLeaves emptied leaf tables, both recycled by
	// Reset.
	allocated  []uint32
	free       []*page
	freeLeaves []*pageLeaf
}

// New creates a shadow with the given domain size, which must be a power of
// two in [MinDomainSize, MaxDomainSize].
func New(domainSize uint32) (*Shadow, error) {
	if domainSize < MinDomainSize || domainSize > MaxDomainSize || domainSize&(domainSize-1) != 0 {
		return nil, fmt.Errorf("shadow: invalid domain size %d", domainSize)
	}
	return &Shadow{
		domainSize:  domainSize,
		domShift:    uint(bits.TrailingZeros32(domainSize)),
		domPerPage:  mem.PageSize / domainSize,
		everTainted: make([]uint64, bitmapWords),
	}, nil
}

// MustNew is New panicking on error, for configurations validated elsewhere.
func MustNew(domainSize uint32) *Shadow {
	s, err := New(domainSize)
	if err != nil {
		panic(err)
	}
	return s
}

// DomainSize returns the configured taint-domain granularity in bytes.
func (s *Shadow) DomainSize() uint32 { return s.domainSize }

// DomainIndex returns the global index of the domain containing addr.
func (s *Shadow) DomainIndex(addr uint32) uint32 { return addr >> s.domShift }

// DomainBase returns the first address of domain d.
func (s *Shadow) DomainBase(d uint32) uint32 { return d << s.domShift }

// OnDomainTransition registers the watcher called when a domain changes
// between clean and tainted. Passing nil removes the watcher.
func (s *Shadow) OnDomainTransition(w Watcher) { s.onDomain = w }

// OnPageTransition registers the watcher called when a page changes between
// clean and tainted. Passing nil removes the watcher.
func (s *Shadow) OnPageTransition(w Watcher) { s.onPage = w }

// OnByteTransition registers the watcher called on every byte-level taint
// status change. Passing nil removes the watcher.
func (s *Shadow) OnByteTransition(w ByteWatcher) { s.onByte = w }

// lookup returns the page numbered pn or nil, going through the translation
// cache.
func (s *Shadow) lookup(pn uint32) *page {
	if pn == s.lastPN && s.lastPage != nil {
		s.tlcHits++
		return s.lastPage
	}
	s.tlcMiss++
	leaf := s.dir[pn>>leafBits]
	if leaf == nil {
		return nil
	}
	p := leaf[pn&(leafSize-1)]
	if p != nil {
		s.lastPN, s.lastPage = pn, p
	}
	return p
}

func (s *Shadow) getPage(pn uint32, create bool) *page {
	if pn == s.lastPN && s.lastPage != nil {
		s.tlcHits++
		return s.lastPage
	}
	s.tlcMiss++
	leaf := s.dir[pn>>leafBits]
	if leaf == nil {
		if !create {
			return nil
		}
		if n := len(s.freeLeaves); n > 0 {
			leaf = s.freeLeaves[n-1]
			s.freeLeaves[n-1] = nil
			s.freeLeaves = s.freeLeaves[:n-1]
		} else {
			leaf = new(pageLeaf)
		}
		s.dir[pn>>leafBits] = leaf
	}
	p := leaf[pn&(leafSize-1)]
	if p == nil {
		if !create {
			return nil
		}
		if n := len(s.free); n > 0 {
			p = s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
		} else {
			p = new(page)
		}
		leaf[pn&(leafSize-1)] = p
		s.allocated = append(s.allocated, pn)
	}
	s.lastPN, s.lastPage = pn, p
	return p
}

// TranslationCacheStats returns the hit and miss counts of the one-entry
// tag-page translation cache.
func (s *Shadow) TranslationCacheStats() (hits, misses uint64) {
	return s.tlcHits, s.tlcMiss
}

// markEverTainted records page pn in the ever-tainted set.
func (s *Shadow) markEverTainted(pn uint32) {
	w, bit := pn>>6, uint64(1)<<(pn&63)
	if s.everTainted[w]&bit == 0 {
		if s.everTainted[w] == 0 {
			s.everDirtyWords = append(s.everDirtyWords, w)
		}
		s.everTainted[w] |= bit
		s.everTaintedCount++
	}
}

// Get returns the tag of the byte at addr.
func (s *Shadow) Get(addr uint32) Tag {
	p := s.lookup(mem.PageNumber(addr))
	if p == nil {
		return TagClean
	}
	return p.tags[addr%mem.PageSize]
}

// Set assigns tag to the byte at addr and returns the previous tag.
func (s *Shadow) Set(addr uint32, tag Tag) Tag {
	pn := mem.PageNumber(addr)
	// Translation-cache hit path, hoisted: getPage is too large to inline
	// and Set is the propagate hot path.
	var p *page
	if pn == s.lastPN && s.lastPage != nil {
		s.tlcHits++
		p = s.lastPage
	} else if p = s.getPage(pn, tag != TagClean); p == nil {
		return TagClean // clearing an untracked byte: nothing to do
	}
	off := addr % mem.PageSize
	old := p.tags[off]
	if old == tag {
		return old
	}
	p.tags[off] = tag
	di := off >> s.domShift
	switch {
	case old == TagClean && tag != TagClean:
		p.taintedBytes++
		s.taintedBytes++
		p.domainBytes[di]++
		if p.domainBytes[di] == 1 && s.onDomain != nil {
			s.onDomain(s.DomainIndex(addr), true)
		}
		if p.taintedBytes == 1 {
			s.markEverTainted(pn)
			if s.onPage != nil {
				s.onPage(pn, true)
			}
		}
		if s.onByte != nil {
			s.onByte(addr, true)
		}
	case old != TagClean && tag == TagClean:
		p.taintedBytes--
		s.taintedBytes--
		p.domainBytes[di]--
		if p.domainBytes[di] == 0 && s.onDomain != nil {
			s.onDomain(s.DomainIndex(addr), false)
		}
		if p.taintedBytes == 0 && s.onPage != nil {
			s.onPage(pn, false)
		}
		if s.onByte != nil {
			s.onByte(addr, false)
		}
	}
	return old
}

// SetRange assigns tag to n bytes starting at addr. It is observably
// equivalent to n ascending Set calls — identical counter updates and
// watcher callback sequence — but resolves each tag page once, so the
// taint initialization of multi-kilobyte inputs does not pay a page lookup
// per byte.
func (s *Shadow) SetRange(addr uint32, n int, tag Tag) {
	for n > 0 {
		off := addr % mem.PageSize
		run := int(mem.PageSize - off)
		if run > n {
			run = n
		}
		s.setPageRange(mem.PageNumber(addr), off, run, tag)
		addr += uint32(run)
		n -= run
	}
}

// setPageRange applies Set's transition logic to run bytes of page pn
// starting at page offset off (the span never crosses the page boundary).
func (s *Shadow) setPageRange(pn, off uint32, run int, tag Tag) {
	p := s.getPage(pn, tag != TagClean)
	if p == nil {
		return // clearing untracked bytes: nothing to do
	}
	base := pn << mem.PageShift
	end := off + uint32(run)
	if tag != TagClean && s.onByte == nil {
		// Clean-span fill: when every domain the span touches holds no
		// tainted bytes, every byte transitions, so the counters can be set
		// wholesale. The watcher sequence matches the per-byte order: each
		// domain fires at its first byte, and the page transition fires right
		// after the very first domain's — and only if the page held no taint
		// anywhere before the fill.
		dEnd := (end - 1) >> s.domShift
		clean := true
		for d := off >> s.domShift; d <= dEnd; d++ {
			if p.domainBytes[d] != 0 {
				clean = false
				break
			}
		}
		if clean {
			pageWasClean := p.taintedBytes == 0
			for i := off; i < end; i++ {
				p.tags[i] = tag
			}
			p.taintedBytes += uint16(run)
			s.taintedBytes += uint64(run)
			for d := off >> s.domShift; d <= dEnd; d++ {
				lo := d << s.domShift
				if lo < off {
					lo = off
				}
				hi := (d + 1) << s.domShift
				if hi > end {
					hi = end
				}
				p.domainBytes[d] = uint16(hi - lo)
				if s.onDomain != nil {
					s.onDomain((base>>s.domShift)+d, true)
				}
				if lo == off && pageWasClean {
					s.markEverTainted(pn)
					if s.onPage != nil {
						s.onPage(pn, true)
					}
				}
			}
			return
		}
	}
	for i := off; i < end; i++ {
		old := p.tags[i]
		if old == tag {
			continue
		}
		p.tags[i] = tag
		di := i >> s.domShift
		switch {
		case old == TagClean && tag != TagClean:
			p.taintedBytes++
			s.taintedBytes++
			p.domainBytes[di]++
			if p.domainBytes[di] == 1 && s.onDomain != nil {
				s.onDomain((base>>s.domShift)+di, true)
			}
			if p.taintedBytes == 1 {
				s.markEverTainted(pn)
				if s.onPage != nil {
					s.onPage(pn, true)
				}
			}
			if s.onByte != nil {
				s.onByte(base+i, true)
			}
		case old != TagClean && tag == TagClean:
			p.taintedBytes--
			s.taintedBytes--
			p.domainBytes[di]--
			if p.domainBytes[di] == 0 && s.onDomain != nil {
				s.onDomain((base>>s.domShift)+di, false)
			}
			if p.taintedBytes == 0 && s.onPage != nil {
				s.onPage(pn, false)
			}
			if s.onByte != nil {
				s.onByte(base+i, false)
			}
		}
	}
}

// RangeTag returns the union of tags over [addr, addr+n).
func (s *Shadow) RangeTag(addr uint32, n int) Tag {
	var t Tag
	for i := 0; i < n; i++ {
		t |= s.Get(addr + uint32(i))
		if t == 0xFF {
			break
		}
	}
	return t
}

// RangeTainted reports whether any byte in [addr, addr+n) is tainted.
func (s *Shadow) RangeTainted(addr uint32, n int) bool {
	return s.RangeTag(addr, n) != TagClean
}

// RangeCoarseTainted reports whether the access [addr, addr+n) overlaps a
// taint domain currently holding tainted bytes — the CTT/TLB-bit screen the
// VM's fast loop applies before executing a memory access. It is a
// conservative superset of RangeTainted (a tainted byte always taints its
// domain), so a false return proves the range byte-clean. n must be at most
// MinDomainSize, so the range spans at most two domains; memory operands are
// at most a word.
func (s *Shadow) RangeCoarseTainted(addr uint32, n int) bool {
	if s.taintedBytes == 0 || n <= 0 {
		return false
	}
	if s.domainCoarseTainted(addr) {
		return true
	}
	end := addr + uint32(n) - 1
	if end>>s.domShift != addr>>s.domShift {
		return s.domainCoarseTainted(end)
	}
	return false
}

// domainCoarseTainted reports whether addr's domain holds any tainted byte.
func (s *Shadow) domainCoarseTainted(addr uint32) bool {
	p := s.lookup(mem.PageNumber(addr))
	return p != nil && p.taintedBytes > 0 && p.domainBytes[(addr%mem.PageSize)>>s.domShift] > 0
}

// DomainTainted reports whether any byte of domain d is tainted.
func (s *Shadow) DomainTainted(d uint32) bool {
	return s.DomainTaintedBytes(d) > 0
}

// DomainTaintedBytes returns the number of tainted bytes in domain d. This
// is what the clear-bit scan of §5.1.4 consults to decide whether a domain
// has been fully cleared.
func (s *Shadow) DomainTaintedBytes(d uint32) int {
	addr := s.DomainBase(d)
	p := s.lookup(mem.PageNumber(addr))
	if p == nil {
		return 0
	}
	return int(p.domainBytes[(addr%mem.PageSize)>>s.domShift])
}

// TaintedAt reports whether the aligned unit of the given power-of-two size
// containing addr holds any tainted byte, or an error when unitSize is not a
// power of two. It works at any granularity, independent of the configured
// domain size; Figure 6 uses it to measure false-positive rates across
// granularities from one byte-precise state.
func (s *Shadow) TaintedAt(addr uint32, unitSize uint32) (bool, error) {
	if unitSize == 0 || unitSize&(unitSize-1) != 0 {
		return false, fmt.Errorf("shadow: unit size %d not a power of two", unitSize)
	}
	base := addr &^ (unitSize - 1)
	if unitSize >= mem.PageSize {
		// Whole pages (or runs of pages). Iterate by page count, not by end
		// address: a unit ending at the top of the address space wraps
		// base+unitSize to 0, and an address-compare loop would exit before
		// looking at any page.
		pn := mem.PageNumber(base)
		for i := uint32(0); i < unitSize/mem.PageSize; i++ {
			if p := s.lookup((pn + i) % mem.PageCount); p != nil && p.taintedBytes > 0 {
				return true, nil
			}
		}
		return false, nil
	}
	p := s.lookup(mem.PageNumber(base))
	if p == nil || p.taintedBytes == 0 {
		return false, nil
	}
	off := base % mem.PageSize
	if unitSize >= s.domainSize {
		// Aggregate whole domain counters.
		for d := off / s.domainSize; d < (off+unitSize)/s.domainSize; d++ {
			if p.domainBytes[d] > 0 {
				return true, nil
			}
		}
		return false, nil
	}
	for i := uint32(0); i < unitSize; i++ {
		if p.tags[off+i] != TagClean {
			return true, nil
		}
	}
	return false, nil
}

// MustTaintedAt is TaintedAt panicking on error, for statically known
// power-of-two unit sizes.
func (s *Shadow) MustTaintedAt(addr, unitSize uint32) bool {
	ok, err := s.TaintedAt(addr, unitSize)
	if err != nil {
		panic(err)
	}
	return ok
}

// PageTainted reports whether the page currently holds any tainted byte.
func (s *Shadow) PageTainted(pn uint32) bool {
	p := s.lookup(pn)
	return p != nil && p.taintedBytes > 0
}

// PageTaintedBytes returns the number of tainted bytes currently in page pn.
func (s *Shadow) PageTaintedBytes(pn uint32) int {
	p := s.lookup(pn)
	if p == nil {
		return 0
	}
	return int(p.taintedBytes)
}

// TaintedBytes returns the total number of currently tainted bytes.
func (s *Shadow) TaintedBytes() uint64 { return s.taintedBytes }

// PagesAllocated returns the number of tag pages backed by storage.
func (s *Shadow) PagesAllocated() int { return len(s.allocated) }

// EverTaintedPages returns the number of distinct pages that have held taint
// at any point during execution (the "pages tainted" metric of Tables 3/4).
func (s *Shadow) EverTaintedPages() int { return s.everTaintedCount }

// EverTaintedPageNumbers returns the sorted page numbers that ever held taint.
func (s *Shadow) EverTaintedPageNumbers() []uint32 {
	out := make([]uint32, 0, s.everTaintedCount)
	for w, word := range s.everTainted {
		for ; word != 0; word &= word - 1 {
			out = append(out, uint32(w)<<6+uint32(bits.TrailingZeros64(word)))
		}
	}
	return out
}

// ForEachEverTaintedPage calls fn with the number of every page that held
// taint since the last Reset, in no particular order. It walks only the
// bitmap words those pages set, so its cost follows the pages the run
// tainted, not the address space, and it allocates nothing.
func (s *Shadow) ForEachEverTaintedPage(fn func(pn uint32)) {
	for _, w := range s.everDirtyWords {
		for word := s.everTainted[w]; word != 0; word &= word - 1 {
			fn(w<<6 + uint32(bits.TrailingZeros64(word)))
		}
	}
}

// CurrentTaintedPages returns the number of pages holding taint right now.
func (s *Shadow) CurrentTaintedPages() int {
	n := 0
	for _, pn := range s.allocated {
		if p := s.dir[pn>>leafBits][pn&(leafSize-1)]; p.taintedBytes > 0 {
			n++
		}
	}
	return n
}

// Reset clears all taint and statistics. Watchers are retained but not
// invoked for the wholesale clear. The tag pages are zeroed and recycled
// onto a free list rather than released, so repopulating after a Reset
// allocates nothing. The leaf tables that mapped them are emptied and
// recycled too, so what a Shadow keeps across Resets is bounded by the most
// pages one run tainted, not by every region runs ever touched.
func (s *Shadow) Reset() {
	for _, pn := range s.allocated {
		leaf := s.dir[pn>>leafBits]
		p := leaf[pn&(leafSize-1)]
		// The counters say exactly which domains hold nonzero tags; a page
		// whose taint was already cleared byte-by-byte needs no zeroing at
		// all, and a sparsely tainted one only domain-sized clears.
		if p.taintedBytes > 0 {
			for di, n := range p.domainBytes[:s.domPerPage] {
				if n > 0 {
					base := uint32(di) * s.domainSize
					clear(p.tags[base : base+s.domainSize])
					p.domainBytes[di] = 0
				}
			}
			p.taintedBytes = 0
		}
		leaf[pn&(leafSize-1)] = nil
		s.free = append(s.free, p)
	}
	// Every leaf maps only allocated pages, so each is empty now.
	for _, pn := range s.allocated {
		if leaf := s.dir[pn>>leafBits]; leaf != nil {
			s.dir[pn>>leafBits] = nil
			s.freeLeaves = append(s.freeLeaves, leaf)
		}
	}
	s.allocated = s.allocated[:0]
	for _, w := range s.everDirtyWords {
		s.everTainted[w] = 0
	}
	s.everDirtyWords = s.everDirtyWords[:0]
	s.everTaintedCount = 0
	s.taintedBytes = 0
	s.lastPage = nil
	s.tlcHits, s.tlcMiss = 0, 0
}
