package mem

import (
	"slices"
	"testing"
)

// pageOf spreads one byte over the address space: the high nibble picks one
// of 16 leaf tables and the low nibble one of 16 slots in it, the first and
// last of each included, so 0x00 is page 0 and 0xFF page 0xFFFFF.
func pageOf(b byte) uint32 {
	leaf := uint32(b>>4) * (dirSize - 1) / 15
	slot := uint32(b&15) * (leafSize - 1) / 15
	return leaf<<leafBits | slot
}

// FuzzPageTable runs operation triples {op, page byte, source page byte} on
// a Table and a PageSet and checks both against map models after every
// step: contents, Len, and hits plus misses equal to lookups since the last
// Reset. Alias maps a page onto a mapped one's storage, and the model keeps
// every page's contents apart: a write through Get or Writable must change
// only its own page, whichever side of an alias it hits, must never receive
// storage another entry maps, and Lookup after it must return the written
// page. Len must count a page of storage for every mapping and for every
// copy a shared entry makes before a write, and none for an alias. Mapped must agree with the model
// without counting a lookup or touching the translation cache. After each
// Reset the directory must be empty and the table must keep no more pages
// and leaf tables than its largest run held.
func FuzzPageTable(f *testing.F) {
	// Sixteen runs, each mapping one page under its own leaf table: the
	// table must keep one page and one leaf, not sixteen.
	var recycle []byte
	for i := byte(0); i < 16; i++ {
		recycle = append(recycle, 1, i<<4|i, 0, 2, 0, 0)
	}
	f.Add(recycle)
	f.Add([]byte{1, 0x00, 0, 1, 0xFF, 0, 0, 0xFF, 0, 0, 0x0F, 0, 3, 0xFF, 0, 3, 0x00, 0, 4, 0xF0, 0, 5, 0, 0, 4, 0xFF, 0, 2, 0, 0, 0, 0x00, 0})
	f.Add([]byte{1, 0x11, 0, 0, 0x11, 0, 0, 0x12, 0, 1, 0x12, 0, 1, 0x21, 0, 2, 0, 0, 1, 0x21, 0, 0, 0x11, 0, 3, 0x11, 0, 3, 0x11, 0, 4, 0x11, 0})
	f.Add([]byte{6, 0x11, 0, 1, 0x11, 0, 6, 0x11, 0, 6, 0x12, 0, 6, 0x21, 0, 0, 0x21, 0, 6, 0x11, 0, 2, 0, 0, 6, 0x11, 0})
	// A pattern page aliased twice, written through an alias, through
	// itself and through Writable, read back, aliased onto a mapped page
	// and onto an alias, then reset and remapped.
	f.Add([]byte{1, 0x11, 0, 7, 0x12, 0x11, 7, 0x13, 0x11, 0, 0x12, 0, 1, 0x12, 0, 0, 0x13, 0, 0, 0x11, 0,
		1, 0x11, 0, 0, 0x13, 0, 8, 0x13, 0, 8, 0x14, 0, 6, 0x13, 0, 1, 0x21, 0, 7, 0x21, 0x13, 7, 0x22, 0x21,
		0, 0x22, 0, 8, 0x22, 0, 2, 0, 0, 1, 0x11, 0, 0, 0x12, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table[[8]byte]
		set := NewPageSet()
		pages := map[uint32]byte{}  // mapped page -> byte every slot holds
		shared := map[uint32]bool{} // mapped page -> its storage is shared
		held := 0                   // storage the table holds
		inSet := map[uint32]bool{}
		var lookups uint64
		maxHeld, maxLeaves := 0, 0
		fill := func(v byte) [8]byte { return [8]byte{v, v, v, v, v, v, v, v} }
		// own checks that the page a write accessor returned for pn is
		// pn's alone and moves the model's storage for a copy.
		own := func(step int, pn uint32, p *[8]byte) {
			if shared[pn] {
				held++
				shared[pn] = false
			}
			for other := range pages {
				if l := tab.dir[other>>leafBits]; other != pn && l.pages[other&(leafSize-1)] == p {
					t.Fatalf("step %d: a write to %#x received the storage page %#x maps", step, pn, other)
				}
			}
		}
		for i := 0; i+2 < len(ops); i += 3 {
			step, pn, src := i/3, pageOf(ops[i+1]), pageOf(ops[i+2])
			switch ops[i] % 9 {
			case 0:
				lookups++
				p := tab.Lookup(pn)
				if v, ok := pages[pn]; ok != (p != nil) || ok && *p != fill(v) {
					t.Fatalf("step %d: Lookup(%#x) = %v, model has %v (%v)", step, pn, p, v, ok)
				}
			case 1, 8:
				lookups++
				var p *[8]byte
				v, ok := pages[pn]
				if ops[i]%9 == 1 {
					p = tab.Get(pn)
					if !ok {
						held++
					}
				} else if p = tab.Writable(pn); !ok {
					if p != nil {
						t.Fatalf("step %d: Writable(%#x) mapped an unmapped page", step, pn)
					}
					break
				}
				if !ok && *p != [8]byte{} || ok && *p != fill(v) {
					t.Fatalf("step %d: write access to %#x = %v, model has %v (%v)", step, pn, *p, v, ok)
				}
				own(step, pn, p)
				v = byte(i)
				*p = fill(v)
				pages[pn] = v
				lookups++
				if q := tab.Lookup(pn); q != p {
					t.Fatalf("step %d: Lookup(%#x) after a write = %p, the write went to %p", step, pn, q, p)
				}
			case 2:
				leaves := map[uint32]bool{}
				for pn := range pages {
					leaves[pn>>leafBits] = true
				}
				maxHeld, maxLeaves = max(maxHeld, held), max(maxLeaves, len(leaves))
				tab.Reset(func(p *[8]byte) { *p = [8]byte{} })
				clear(pages)
				clear(shared)
				held = 0
				lookups = 0
				for d, leaf := range tab.dir {
					if leaf != nil {
						t.Fatalf("step %d: directory entry %d holds a leaf after Reset", step, d)
					}
				}
				if len(tab.free) > maxHeld || len(tab.freeLeaves) > maxLeaves {
					t.Fatalf("step %d: Reset kept %d pages and %d leaves; the largest run held %d and %d",
						step, len(tab.free), len(tab.freeLeaves), maxHeld, maxLeaves)
				}
				for _, l := range tab.freeLeaves {
					if *l != (leaf[[8]byte]{}) {
						t.Fatalf("step %d: Reset kept a leaf that is not empty", step)
					}
				}
			case 3:
				set.Add(pn)
				inSet[pn] = true
			case 4:
				if set.Has(pn) != inSet[pn] {
					t.Fatalf("step %d: Has(%#x) = %v, want %v", step, pn, !inSet[pn], inSet[pn])
				}
			case 5:
				set.Clear()
				for pn := range inSet {
					if set.Has(pn) {
						t.Fatalf("step %d: page %#x still in the set after Clear", step, pn)
					}
				}
				clear(inSet)
			case 6:
				rk, rp, wk, wp := tab.readKey, tab.readPage, tab.writeKey, tab.writePage
				if _, ok := pages[pn]; tab.Mapped(pn) != ok {
					t.Fatalf("step %d: Mapped(%#x) = %v, want %v", step, pn, !ok, ok)
				}
				if tab.readKey != rk || tab.readPage != rp || tab.writeKey != wk || tab.writePage != wp {
					t.Fatalf("step %d: Mapped(%#x) moved the translation cache", step, pn)
				}
			case 7:
				v, ok := pages[src]
				if !ok || pn == src {
					break
				}
				tab.Alias(pn, src)
				pages[pn] = v
				shared[pn], shared[src] = true, true
			}
			if hits, misses := tab.Stats(); hits+misses != lookups {
				t.Fatalf("step %d: %d hits + %d misses, want %d lookups", step, hits, misses, lookups)
			}
			if tab.Len() != held || set.Len() != len(inSet) {
				t.Fatalf("step %d: Len = %d and %d, want %d and %d", step, tab.Len(), set.Len(), held, len(inSet))
			}
		}
		var want, each []uint32
		for pn := range inSet {
			want = append(want, pn)
		}
		slices.Sort(want)
		set.ForEach(func(pn uint32) { each = append(each, pn) })
		slices.Sort(each)
		if got := set.Pages(); !slices.Equal(got, want) || !slices.Equal(each, want) {
			t.Fatalf("Pages = %v and ForEach visited %v, want %v", got, each, want)
		}
	})
}
