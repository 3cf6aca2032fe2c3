package mem

import "math/bits"

// The two-level page table splits the 20-bit page number into a directory
// index (high dirBits) and a leaf index (low leafBits).
const (
	leafBits = 10
	leafSize = 1 << leafBits
	dirBits  = 32 - PageShift - leafBits
	dirSize  = 1 << dirBits
)

// Table maps page numbers to pages of type P. It is a flat two-level radix
// table — a directory of leaf tables indexed by the high bits of the page
// number, leaves holding page pointers indexed by the low bits — fronted by
// a one-entry translation cache, so consecutive lookups of one page cost one
// compare and no hashing. Pages are mapped zeroed on first Get and recycled
// by Reset through free lists, together with the leaf tables that mapped
// them: a table Reset between runs allocates nothing once it has seen its
// largest run, and keeps no more pages and leaves than that run mapped.
// Page numbers are below PageCount.
//
// The zero value is an empty table.
type Table[P any] struct {
	dir [dirSize]*[leafSize]*P

	// The translation cache: last is the page the last successful lookup
	// resolved to and lastKey the bitwise complement of its number. No page
	// number complements to zero, so lastKey == 0 marks the entry invalid
	// (the zero value starts empty) and a hit costs one compare — which
	// also keeps Lookup and Get within the inlining budget.
	lastKey      uint32
	last         *P
	hits, misses uint64

	// mapped lists the mapped page numbers in mapping order; free holds
	// cleared pages and freeLeaves emptied leaf tables.
	mapped     []uint32
	free       []*P
	freeLeaves []*[leafSize]*P
}

// Lookup returns page pn, or nil when pn is not mapped.
func (t *Table[P]) Lookup(pn uint32) *P {
	if ^pn == t.lastKey {
		t.hits++
		return t.last
	}
	return t.walk(pn, false)
}

// Get returns page pn, mapping a zeroed page first when pn is not mapped.
func (t *Table[P]) Get(pn uint32) *P {
	if ^pn == t.lastKey {
		t.hits++
		return t.last
	}
	return t.walk(pn, true)
}

// Mapped reports whether page pn is mapped. Unlike Lookup it is not counted
// in Stats and leaves the translation cache as it is.
func (t *Table[P]) Mapped(pn uint32) bool {
	leaf := t.dir[pn>>leafBits]
	return leaf != nil && leaf[pn&(leafSize-1)] != nil
}

// walk resolves pn through the directory on a translation-cache miss,
// mapping it when create is set, and caches the page it finds.
func (t *Table[P]) walk(pn uint32, create bool) *P {
	t.misses++
	leaf := t.dir[pn>>leafBits]
	if leaf == nil {
		if !create {
			return nil
		}
		if leaf = pop(&t.freeLeaves); leaf == nil {
			leaf = new([leafSize]*P)
		}
		t.dir[pn>>leafBits] = leaf
	}
	p := leaf[pn&(leafSize-1)]
	if p == nil {
		if !create {
			return nil
		}
		if p = pop(&t.free); p == nil {
			p = new(P)
		}
		leaf[pn&(leafSize-1)] = p
		t.mapped = append(t.mapped, pn)
	}
	t.lastKey, t.last = ^pn, p
	return p
}

// pop removes and returns the last element of *s, or nil when *s is empty.
func pop[T any](s *[]*T) *T {
	n := len(*s)
	if n == 0 {
		return nil
	}
	x := (*s)[n-1]
	(*s)[n-1] = nil
	*s = (*s)[:n-1]
	return x
}

// Len returns the number of mapped pages.
func (t *Table[P]) Len() int { return len(t.mapped) }

// Stats returns the translation cache's hit and miss counts since the last
// Reset: every Lookup and Get counts as exactly one of the two.
func (t *Table[P]) Stats() (hits, misses uint64) { return t.hits, t.misses }

// Reset unmaps every page and zeroes the translation-cache counts. Each page
// is handed to zero, which must leave it zeroed, and kept for a later Get;
// the emptied leaf tables are kept too. It costs what the run mapped, not
// the address space.
func (t *Table[P]) Reset(zero func(*P)) {
	for _, pn := range t.mapped {
		leaf := t.dir[pn>>leafBits]
		p := leaf[pn&(leafSize-1)]
		zero(p)
		leaf[pn&(leafSize-1)] = nil
		t.free = append(t.free, p)
	}
	// Every leaf maps only mapped pages, so each is empty now.
	for _, pn := range t.mapped {
		if leaf := t.dir[pn>>leafBits]; leaf != nil {
			t.dir[pn>>leafBits] = nil
			t.freeLeaves = append(t.freeLeaves, leaf)
		}
	}
	t.mapped = t.mapped[:0]
	t.lastKey, t.last = 0, nil
	t.hits, t.misses = 0, 0
}

// PageSet is a set of page numbers: a bitmap with one bit per page of the
// address space, plus the list of its words holding a set bit, so Clear and
// ForEach cost the pages added, not the 128 KiB bitmap.
//
// The zero value is not usable; call NewPageSet.
type PageSet struct {
	words []uint64
	dirty []uint32
	n     int
}

// NewPageSet returns an empty set.
func NewPageSet() PageSet { return PageSet{words: make([]uint64, PageCount/64)} }

// Add puts page pn in the set.
func (s *PageSet) Add(pn uint32) {
	w, bit := pn>>6, uint64(1)<<(pn&63)
	if s.words[w]&bit != 0 {
		return
	}
	if s.words[w] == 0 {
		s.dirty = append(s.dirty, w)
	}
	s.words[w] |= bit
	s.n++
}

// Has reports whether page pn is in the set.
func (s *PageSet) Has(pn uint32) bool { return s.words[pn>>6]&(1<<(pn&63)) != 0 }

// Len returns the number of pages in the set.
func (s *PageSet) Len() int { return s.n }

// ForEach calls fn with every page in the set, in no particular order. It
// allocates nothing.
func (s *PageSet) ForEach(fn func(pn uint32)) {
	for _, w := range s.dirty {
		for word := s.words[w]; word != 0; word &= word - 1 {
			fn(w<<6 + uint32(bits.TrailingZeros64(word)))
		}
	}
}

// Pages returns the pages in the set, ascending.
func (s *PageSet) Pages() []uint32 {
	out := make([]uint32, 0, s.n)
	for w, word := range s.words {
		for ; word != 0; word &= word - 1 {
			out = append(out, uint32(w)<<6+uint32(bits.TrailingZeros64(word)))
		}
	}
	return out
}

// Clear empties the set.
func (s *PageSet) Clear() {
	for _, w := range s.dirty {
		s.words[w] = 0
	}
	s.dirty = s.dirty[:0]
	s.n = 0
}
