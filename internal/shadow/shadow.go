// Package shadow implements the byte-precise shadow taint memory that backs
// the precise DIFT engine (the role libdft's tagmap plays in the paper).
//
// Beyond byte-granular tags, the shadow maintains two derived summaries that
// LATCH's coarse state is defined over:
//
//   - per-domain tainted-byte counts, where a domain is a fixed power-of-two
//     span of tens of bytes (§4.1 of the paper) — the ground truth for CTT
//     bits and for the clear-bit machinery of §5.1.4/§5.3.1, and
//   - per-page tainted-byte counts, which let TaintedAt answer at page
//     granularity and Reset skip clean pages, plus the set of pages that
//     ever held taint — the "pages tainted" count of Tables 3 and 4.
//
// Domain transitions (clean→tainted and tainted→clean) are reported through
// watcher callbacks so the coarse taint table can stay synchronized
// incrementally, exactly as the hardware update logic in Figure 12 does.
//
// The tag pages run on mem.Table, the page map guest memory uses, and the
// ever-tainted set is a mem.PageSet, so the propagate path (Set/Get)
// performs no hashing and no allocation in steady state and Reset costs
// what the run tainted.
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

// maxDomPerPage is the per-page domain count at the smallest granularity;
// domainBytes is sized for it so a page is one allocation at any granularity.
const maxDomPerPage = mem.PageSize / MinDomainSize

type page struct {
	tags         [mem.PageSize]Tag
	domainBytes  [maxDomPerPage]uint16 // tainted bytes per domain; [0:domPerPage) used
	taintedBytes uint16
}

// Watcher observes transitions of a domain between the clean and tainted
// states. Domains are identified by their global index (address >>
// log2(domain size)).
type Watcher func(domain uint32, tainted bool)

// ByteWatcher observes every byte-level taint-status transition (an address
// changing between clean and tainted). The S-LATCH clear-bit machinery
// subscribes to it: every zero-write to a previously tainted byte asserts
// the domain's clear bit, every taint re-assertion retires it (§5.1.4).
type ByteWatcher func(addr uint32, tainted bool)

// Shadow is a sparse byte-precise taint map over the 32-bit address space.
type Shadow struct {
	pages mem.Table[page]

	domainSize uint32
	domShift   uint
	domPerPage uint32

	taintedBytes uint64 // global count

	onDomain Watcher
	onByte   ByteWatcher

	// everTainted records pages that have held taint at any point; the
	// paper's Tables 3/4 count pages that *received* tainted data during the
	// run, not pages tainted at exit. Every page holding taint now is in it.
	everTainted mem.PageSet
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
		everTainted: mem.NewPageSet(),
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

// OnByteTransition registers the watcher called on every byte-level taint
// status change. Passing nil removes the watcher.
func (s *Shadow) OnByteTransition(w ByteWatcher) { s.onByte = w }

// Get returns the tag of the byte at addr.
func (s *Shadow) Get(addr uint32) Tag {
	p := s.pages.Lookup(mem.PageNumber(addr))
	if p == nil {
		return TagClean
	}
	return p.tags[addr%mem.PageSize]
}

// Set assigns tag to the byte at addr and returns the previous tag.
func (s *Shadow) Set(addr uint32, tag Tag) Tag {
	pn := mem.PageNumber(addr)
	// Get and Lookup inline, so a translation-cache hit costs no call on
	// the propagate hot path.
	var p *page
	if tag != TagClean {
		p = s.pages.Get(pn)
	} else if p = s.pages.Lookup(pn); p == nil {
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
			s.everTainted.Add(pn)
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
	var p *page
	if tag != TagClean {
		p = s.pages.Get(pn)
	} else if p = s.pages.Lookup(pn); p == nil {
		return // clearing untracked bytes: nothing to do
	}
	base := pn << mem.PageShift
	end := off + uint32(run)
	if tag != TagClean && s.onByte == nil {
		// Clean-span fill: when every domain the span touches holds no
		// tainted bytes, every byte transitions, so the counters can be set
		// wholesale. The watcher sequence matches the per-byte order: each
		// domain fires at its first byte.
		dEnd := (end - 1) >> s.domShift
		clean := true
		for d := off >> s.domShift; d <= dEnd; d++ {
			if p.domainBytes[d] != 0 {
				clean = false
				break
			}
		}
		if clean {
			s.everTainted.Add(pn)
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
				s.everTainted.Add(pn)
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
	p := s.pages.Lookup(mem.PageNumber(addr))
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
	p := s.pages.Lookup(mem.PageNumber(addr))
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
			if p := s.pages.Lookup((pn + i) % mem.PageCount); p != nil && p.taintedBytes > 0 {
				return true, nil
			}
		}
		return false, nil
	}
	p := s.pages.Lookup(mem.PageNumber(base))
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

// TaintedBytes returns the total number of currently tainted bytes.
func (s *Shadow) TaintedBytes() uint64 { return s.taintedBytes }

// PagesAllocated returns the number of tag pages backed by storage.
func (s *Shadow) PagesAllocated() int { return s.pages.Len() }

// EverTaintedPages returns the number of distinct pages that have held taint
// at any point during execution (the "pages tainted" metric of Tables 3/4).
func (s *Shadow) EverTaintedPages() int { return s.everTainted.Len() }

// EverTaintedPageNumbers returns the sorted page numbers that ever held taint.
func (s *Shadow) EverTaintedPageNumbers() []uint32 { return s.everTainted.Pages() }

// ForEachEverTaintedPage calls fn with the number of every page that held
// taint since the last Reset, in no particular order. Its cost follows the
// pages the run tainted, not the address space, and it allocates nothing.
func (s *Shadow) ForEachEverTaintedPage(fn func(pn uint32)) { s.everTainted.ForEach(fn) }

// CurrentTaintedPages returns the number of pages holding taint right now.
func (s *Shadow) CurrentTaintedPages() int { return len(s.taintedPageNumbersNow()) }

// Reset clears all taint and statistics. Watchers are retained but not
// invoked for the wholesale clear. The tag pages are zeroed and kept for
// reuse rather than released, so repopulating after a Reset allocates
// nothing, and what a Shadow keeps across Resets is bounded by the most
// pages one run tainted (see mem.Table).
func (s *Shadow) Reset() {
	size, perPage := s.domainSize, s.domPerPage
	s.pages.Reset(func(p *page) {
		// The counters say exactly which domains hold nonzero tags; a page
		// whose taint was already cleared byte-by-byte needs no zeroing at
		// all, and a sparsely tainted one only domain-sized clears.
		if p.taintedBytes == 0 {
			return
		}
		for di, n := range p.domainBytes[:perPage] {
			if n > 0 {
				base := uint32(di) * size
				clear(p.tags[base : base+size])
				p.domainBytes[di] = 0
			}
		}
		p.taintedBytes = 0
	})
	s.everTainted.Clear()
	s.taintedBytes = 0
}
