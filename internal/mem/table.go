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
// a translation cache, so consecutive lookups of one page cost one compare
// and no hashing. Pages are mapped zeroed on first Get and recycled by Reset
// through free lists, together with the leaf tables that mapped them: a
// table Reset between runs allocates nothing once it has seen its largest
// run, and keeps no more pages and leaves than that run held.
//
// An entry can also alias another's page (Alias): it points at the same
// storage instead of owning storage of its own. Aliased storage is
// copy-on-write. Every entry that points at it reads it, and before any
// write through one of them — the alias or the entry it aliases — that
// entry gets a copy of its own, so a page never changes under the entries
// that alias it. Lookup is the read accessor; Get and Writable are the
// write accessors, and the only ones that copy. Reset unmaps aliases
// without zeroing or freeing anything for them, and zeroes and frees each
// page of storage the table holds exactly once. Len counts that storage,
// not the entries that map it.
//
// The translation cache keeps two keys: the read key names the page the
// last lookup resolved, and the write key the page the last lookup
// resolved when its entry owns it unshared. A write therefore never
// receives aliased storage, and a copy moves both keys to itself, so a read
// after a copy sees the copy. A table that never aliases keeps both keys on
// one page: a one-entry cache.
//
// Page numbers are below PageCount. The zero value is an empty table.
type Table[P any] struct {
	dir [dirSize]*leaf[P]

	// The translation cache: readPage and writePage are the pages the keys
	// name, and each key is the bitwise complement of its page's number. No
	// page number complements to zero, so a zero key marks the entry
	// invalid (the zero value starts empty) and a hit costs one compare —
	// which also keeps Lookup, Get and Writable within the inlining budget.
	readKey, writeKey   uint32
	readPage, writePage *P
	hits, misses        uint64

	// mapped lists the mapped page numbers in mapping order, aliases
	// included; owned lists the storage the table holds, each page once,
	// in allocation order. free holds cleared pages and freeLeaves emptied
	// leaf tables.
	mapped     []uint32
	owned      []*P
	free       []*P
	freeLeaves []*leaf[P]
}

// leaf is one leaf table: the page pointers of leafSize consecutive page
// numbers, and a bit per entry set while its storage is shared (the entry
// is an alias, or other entries alias it).
type leaf[P any] struct {
	pages  [leafSize]*P
	shared [leafSize / 64]uint64
}

// Lookup returns page pn for reading, or nil when pn is not mapped. The
// page may be shared with aliases: it must not be written.
func (t *Table[P]) Lookup(pn uint32) *P {
	if ^pn == t.readKey {
		t.hits++
		return t.readPage
	}
	return t.lookup(pn)
}

// Get returns page pn for writing, mapping a zeroed page first when pn is
// not mapped and copying it first when its storage is shared.
func (t *Table[P]) Get(pn uint32) *P {
	if ^pn == t.writeKey {
		t.hits++
		return t.writePage
	}
	return t.write(pn, true)
}

// Writable returns page pn for writing, copying it first when its storage
// is shared, or nil when pn is not mapped.
func (t *Table[P]) Writable(pn uint32) *P {
	if ^pn == t.writeKey {
		t.hits++
		return t.writePage
	}
	return t.write(pn, false)
}

// Mapped reports whether page pn is mapped, as an owner or an alias. Unlike
// Lookup it is not counted in Stats and leaves the translation cache as it
// is.
func (t *Table[P]) Mapped(pn uint32) bool {
	l := t.dir[pn>>leafBits]
	return l != nil && l.pages[pn&(leafSize-1)] != nil
}

// lookup resolves pn through the directory on a read-key miss and caches
// the page it finds: under both keys when pn owns it unshared, else under
// the read key alone.
func (t *Table[P]) lookup(pn uint32) *P {
	t.misses++
	l := t.dir[pn>>leafBits]
	if l == nil {
		return nil
	}
	i := pn & (leafSize - 1)
	p := l.pages[i]
	if p == nil {
		return nil
	}
	t.readKey, t.readPage = ^pn, p
	if !l.isShared(i) {
		t.writeKey, t.writePage = ^pn, p
	}
	return p
}

// write resolves pn through the directory on a write-key miss, mapping it
// when create is set and copying its storage when shared, and caches the
// page under both keys.
func (t *Table[P]) write(pn uint32, create bool) *P {
	t.misses++
	l := t.dir[pn>>leafBits]
	if l == nil {
		if !create {
			return nil
		}
		l = t.newLeaf(pn)
	}
	i := pn & (leafSize - 1)
	p := l.pages[i]
	switch {
	case p == nil:
		if !create {
			return nil
		}
		p = t.alloc()
		l.pages[i] = p
		t.mapped = append(t.mapped, pn)
	case l.isShared(i):
		q := t.alloc()
		*q = *p
		p = q
		l.pages[i] = p
		l.shared[i>>6] &^= 1 << (i & 63)
	}
	t.readKey, t.readPage = ^pn, p
	t.writeKey, t.writePage = ^pn, p
	return p
}

// Alias maps page dst onto the storage page src maps, in place of whatever
// dst mapped, and marks both entries copy-on-write. src must be mapped;
// aliasing a page onto itself changes nothing. Storage dst owned stays held
// until Reset, unmapped.
func (t *Table[P]) Alias(dst, src uint32) {
	sl := t.dir[src>>leafBits]
	if sl == nil || sl.pages[src&(leafSize-1)] == nil {
		panic("mem: aliasing an unmapped page")
	}
	if dst == src {
		return
	}
	dl := t.dir[dst>>leafBits]
	if dl == nil {
		dl = t.newLeaf(dst)
	}
	si, di := src&(leafSize-1), dst&(leafSize-1)
	if dl.pages[di] == nil {
		t.mapped = append(t.mapped, dst)
	}
	dl.pages[di] = sl.pages[si]
	sl.shared[si>>6] |= 1 << (si & 63)
	dl.shared[di>>6] |= 1 << (di & 63)
	if t.readKey == ^dst {
		t.readKey, t.readPage = 0, nil
	}
	if t.writeKey == ^dst || t.writeKey == ^src {
		t.writeKey, t.writePage = 0, nil
	}
}

// isShared reports whether entry i's storage is shared.
func (l *leaf[P]) isShared(i uint32) bool { return l.shared[i>>6]&(1<<(i&63)) != 0 }

// newLeaf installs an empty leaf table for pn's directory entry.
func (t *Table[P]) newLeaf(pn uint32) *leaf[P] {
	l := pop(&t.freeLeaves)
	if l == nil {
		l = new(leaf[P])
	}
	t.dir[pn>>leafBits] = l
	return l
}

// alloc returns a zeroed page of storage the table now holds.
func (t *Table[P]) alloc() *P {
	p := pop(&t.free)
	if p == nil {
		p = new(P)
	}
	t.owned = append(t.owned, p)
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

// Len returns the number of pages of storage the table holds: each mapped
// page that is no alias, and each page an alias still points at after the
// entry it aliased was copied.
func (t *Table[P]) Len() int { return len(t.owned) }

// Stats returns the translation cache's hit and miss counts since the last
// Reset: every Lookup, Get and Writable counts as exactly one of the two.
func (t *Table[P]) Stats() (hits, misses uint64) { return t.hits, t.misses }

// Reset unmaps every page and zeroes the translation-cache counts. Each
// page of storage is handed to zero, which must leave it zeroed, and kept
// for a later Get; an alias is only unmapped. The emptied leaf tables are
// kept too. It costs what the run mapped, not the address space.
func (t *Table[P]) Reset(zero func(*P)) {
	for _, p := range t.owned {
		zero(p)
	}
	t.free = append(t.free, t.owned...)
	t.owned = t.owned[:0]
	for _, pn := range t.mapped {
		l, i := t.dir[pn>>leafBits], pn&(leafSize-1)
		l.pages[i] = nil
		l.shared[i>>6] = 0
	}
	// Every leaf maps only mapped pages, so each is empty now.
	for _, pn := range t.mapped {
		if l := t.dir[pn>>leafBits]; l != nil {
			t.dir[pn>>leafBits] = nil
			t.freeLeaves = append(t.freeLeaves, l)
		}
	}
	t.mapped = t.mapped[:0]
	t.readKey, t.readPage = 0, nil
	t.writeKey, t.writePage = 0, nil
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
