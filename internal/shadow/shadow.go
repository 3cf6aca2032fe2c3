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
// Byte-level transitions go to a second watcher (OnByteTransition), which
// sees every clear but only one taint assertion per domain per write: the
// hardware's update is per domain, so a multi-kilobyte taint write costs a
// watcher call per domain, not per byte.
//
// A taint layout that repeats a page pattern maps each repeat onto the page
// it repeats with AliasPage: a copy-on-write alias (mem.Table.Alias) that
// shares the pattern page's tags and counters instead of copying them, and
// reports, in order, the transitions that writing its bytes from a given
// offset would. Every write path resolves its page through the table's
// write accessors, which copy shared storage first, so neither the alias
// nor the pattern page ever changes under the other. A page watcher
// (OnPageAlias), when registered, takes an aliased page's domain
// transitions in one call instead of the domain watcher's one per domain.
//
// The tag pages run on mem.Table, the page map guest memory uses, and the
// ever-tainted set is a mem.PageSet, so the propagate path (Set/Get)
// performs no hashing and no allocation in steady state and Reset costs
// what the run tainted: the pages of storage it held, not the aliases onto
// them. A shadow holding no taint changes its domain size in place
// (Regranulate): each page's domain counters are sized for the smallest
// domain, so the pages a Reset kept serve any granularity.
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

// ByteWatcher observes byte-level taint-status transitions (an address
// changing between clean and tainted). The S-LATCH clear-bit machinery
// subscribes to it: every zero-write to a previously tainted byte asserts
// the domain's clear bit, every taint re-assertion retires it (§5.1.4).
//
// Clears are reported once per byte. Taint assertions are reported once per
// domain per write: a Set or SetRange call reports each domain it taints
// bytes of once, at the first byte it changes there, and stays silent for
// the rest of that domain's bytes. A watcher whose response to an assertion
// depends only on the byte's domain and repeats idempotently therefore sees
// the same effect as with one report per byte.
type ByteWatcher func(addr uint32, tainted bool)

// PageWatcher observes the domains a page turns tainted when AliasPage maps
// it onto a tainted page, in place of the domain watcher's one report per
// domain. first is the global index of the page's first domain and n the
// page's domain count; bit i of tainted[i/64] is set when domain first+i
// turned tainted. The domain watcher would have seen those domains in
// ascending order from page domain start, wrapping once: start, …, n−1,
// 0, …, start−1. tainted is valid only during the call. A byte watcher
// still takes the page's reports, one per tainted domain, after the call.
type PageWatcher func(first, n, start uint32, tainted []uint64)

// Shadow is a sparse byte-precise taint map over the 32-bit address space.
type Shadow struct {
	pages mem.Table[page]

	domainSize uint32
	domShift   uint
	domPerPage uint32

	taintedBytes uint64 // global count

	onDomain Watcher
	onByte   ByteWatcher
	onPage   PageWatcher
	aliased  [maxDomPerPage / 64]uint64 // the page watcher's bitmap

	// everTainted records pages that have held taint at any point; the
	// paper's Tables 3/4 count pages that *received* tainted data during the
	// run, not pages tainted at exit. Every page holding taint now is in it.
	everTainted mem.PageSet
}

// New creates a shadow with the given domain size, which must be a power of
// two in [MinDomainSize, MaxDomainSize].
func New(domainSize uint32) (*Shadow, error) {
	s := &Shadow{everTainted: mem.NewPageSet()}
	if err := s.Regranulate(domainSize); err != nil {
		return nil, err
	}
	return s, nil
}

// Regranulate changes the domain size of a shadow that holds no taint — a
// new one, or one after Reset — to domainSize, validated as New validates
// it. Every tag page's domain counters are sized for the smallest domain and
// zero in an empty shadow, so the change reallocates nothing: the pages kept
// for reuse serve the new granularity as they are. Watchers are retained.
func (s *Shadow) Regranulate(domainSize uint32) error {
	if domainSize < MinDomainSize || domainSize > MaxDomainSize || domainSize&(domainSize-1) != 0 {
		return fmt.Errorf("shadow: invalid domain size %d", domainSize)
	}
	if s.taintedBytes != 0 {
		return fmt.Errorf("shadow: cannot regranulate a shadow holding %d tainted bytes", s.taintedBytes)
	}
	s.domainSize = domainSize
	s.domShift = uint(bits.TrailingZeros32(domainSize))
	s.domPerPage = mem.PageSize / domainSize
	return nil
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

// OnByteTransition registers the watcher called on byte-level taint status
// changes, under ByteWatcher's once-per-domain contract for taint
// assertions. Passing nil removes the watcher.
func (s *Shadow) OnByteTransition(w ByteWatcher) { s.onByte = w }

// OnPageAlias registers the watcher AliasPage reports an aliased page's
// domain transitions to, in place of the domain watcher (see PageWatcher).
// Passing nil removes it, and AliasPage reports to the domain watcher
// again.
func (s *Shadow) OnPageAlias(w PageWatcher) { s.onPage = w }

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
	// Get and Writable inline, so a translation-cache hit costs no call on
	// the propagate hot path. Both copy an aliased page before the write.
	var p *page
	if tag != TagClean {
		p = s.pages.Get(pn)
	} else if p = s.pages.Writable(pn); p == nil {
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
// domain-watcher callback sequence, and the byte watcher's sequence with
// each domain's repeated taint assertions dropped (see ByteWatcher) — but
// resolves each tag page once, and fills spans over clean domains
// wholesale, so the taint initialization of multi-kilobyte inputs does not
// pay a page lookup or a watcher call per byte.
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
	} else if p = s.pages.Writable(pn); p == nil {
		return // clearing untracked bytes: nothing to do
	}
	base := pn << mem.PageShift
	end := off + uint32(run)
	if tag != TagClean {
		// Clean-span fill: when every domain the span touches holds no
		// tainted bytes, every byte transitions, so the counters can be set
		// wholesale. The watcher sequence matches the per-byte path: each
		// domain fires both watchers at its first byte.
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
				if s.onByte != nil {
					s.onByte(base+lo, true)
				}
			}
			return
		}
	}
	reported := ^uint32(0) // the domain whose taint assertion was reported last
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
			if s.onByte != nil && di != reported {
				reported = di
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

// AliasPage maps page dst, which must hold no taint, onto page src as a
// copy-on-write alias: dst reads src's tags and domain counts, joins the
// ever-tainted pages when src holds taint, and adds src's tainted bytes to
// the count, but no tag is copied until dst or src is next written. It is
// observably equivalent to a Set of each tainted byte of src onto the same
// offset of dst, in the offset order from, from+1, …, PageSize−1, 0, …,
// from−1 — identical counter updates and domain-watcher callback sequence,
// and the byte watcher's sequence with each domain's repeated taint
// assertions dropped (see ByteWatcher) — but costs a page-table entry and a
// watcher call per tainted domain, or one page-watcher call for the page
// when one is registered (OnPageAlias). Only the domain holding from is
// scanned, to order it, unless a byte watcher needs each domain's first
// tainted byte. It returns an error and changes nothing when dst holds
// taint, when from is not a page offset or when a page number lies outside
// the address space; an unmapped or clean src aliases nothing.
func (s *Shadow) AliasPage(dst, src, from uint32) error {
	if dst >= mem.PageCount || src >= mem.PageCount {
		return fmt.Errorf("shadow: aliasing page %#x onto page %#x outside the address space", dst, src)
	}
	if from >= mem.PageSize {
		return fmt.Errorf("shadow: alias order starts at offset %d outside a page", from)
	}
	if dp := s.pages.Lookup(dst); dp != nil && dp.taintedBytes != 0 {
		return fmt.Errorf("shadow: aliasing page %#x holding %d tainted bytes", dst, dp.taintedBytes)
	}
	sp := s.pages.Lookup(src)
	if sp == nil || sp.taintedBytes == 0 {
		return nil
	}
	s.pages.Alias(dst, src)
	s.taintedBytes += uint64(sp.taintedBytes)
	s.everTainted.Add(dst)
	if s.onDomain == nil && s.onByte == nil && s.onPage == nil {
		return nil
	}
	// The Sets visit the domains in rotated order from f, the one holding
	// from, which comes first if it holds a tainted byte at or after from
	// and last otherwise.
	base := dst << mem.PageShift
	counts := sp.domainBytes[:s.domPerPage]
	f := from >> s.domShift
	end := (f + 1) << s.domShift
	fFirst := counts[f] != 0 && firstTainted(&sp.tags, from, end) < end
	if s.onPage != nil {
		start := f
		if !fFirst {
			start = (f + 1) & (s.domPerPage - 1)
		}
		s.onPage(base>>s.domShift, s.domPerPage, start, s.taintedDomains(counts))
	}
	domains := s.onDomain != nil && s.onPage == nil
	if !domains && s.onByte == nil {
		return nil
	}
	if fFirst {
		s.reportAliased(sp, base, f, from, domains)
	}
	for i := uint32(1); i < s.domPerPage; i++ {
		if d := (f + i) & (s.domPerPage - 1); counts[d] != 0 {
			s.reportAliased(sp, base, d, d<<s.domShift, domains)
		}
	}
	if counts[f] != 0 && !fFirst {
		s.reportAliased(sp, base, f, f<<s.domShift, domains)
	}
	return nil
}

// reportAliased reports domain d of the page at base, aliased tainted onto
// page p, to the domain watcher when domains is set and, at its first
// tainted byte at or after page offset lo, to the byte watcher.
func (s *Shadow) reportAliased(p *page, base, d, lo uint32, domains bool) {
	if domains {
		s.onDomain(base>>s.domShift+d, true)
	}
	if s.onByte != nil {
		s.onByte(base+firstTainted(&p.tags, lo, (d+1)<<s.domShift), true)
	}
}

// taintedDomains returns the page watcher's bitmap of the domains whose
// counts are nonzero, bit d of word d/64 for counts[d].
func (s *Shadow) taintedDomains(counts []uint16) []uint64 {
	bm := s.aliased[:(len(counts)+63)/64]
	clear(bm)
	for d, c := range counts {
		if c != 0 {
			bm[d>>6] |= 1 << (d & 63)
		}
	}
	return bm
}

// firstTainted returns the offset of the first tainted tag in [lo, hi), or
// hi when there is none.
func firstTainted(tags *[mem.PageSize]Tag, lo, hi uint32) uint32 {
	for lo < hi && tags[lo] == TagClean {
		lo++
	}
	return lo
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

// PagesAllocated returns the number of tag pages of storage the shadow
// holds. An alias owns none: a layout of repeated pages holds its pattern
// pages, and a page for each copy a write to one of them made.
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
// pages of storage one run held (see mem.Table). Aliases are unmapped
// without a clear: their pattern pages are zeroed once.
func (s *Shadow) Reset() {
	shift, perPage := s.domShift, s.domPerPage
	s.pages.Reset(func(p *page) {
		// The counters say exactly which domains hold nonzero tags: a page
		// whose taint was already cleared byte-by-byte needs no zeroing at
		// all, and any other one clears the span from its first tainted
		// domain through its last, tags and counters, in one clear each.
		if p.taintedBytes == 0 {
			return
		}
		counts := p.domainBytes[:perPage]
		lo, hi := 0, len(counts)-1
		for counts[lo] == 0 {
			lo++
		}
		for counts[hi] == 0 {
			hi--
		}
		clear(p.tags[lo<<shift : (hi+1)<<shift])
		clear(counts[lo : hi+1])
		p.taintedBytes = 0
	})
	s.everTainted.Clear()
	s.taintedBytes = 0
}
