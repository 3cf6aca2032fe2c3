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

// FuzzPageTable runs operation pairs {op, page byte} on a Table and a
// PageSet and checks both against map models after every step: contents,
// Len, and hits plus misses equal to lookups since the last Reset. After
// each Reset the directory must be empty and the table must keep no more
// pages and leaf tables than its largest run mapped.
func FuzzPageTable(f *testing.F) {
	// Sixteen runs, each mapping one page under its own leaf table: the
	// table must keep one page and one leaf, not sixteen.
	var recycle []byte
	for i := byte(0); i < 16; i++ {
		recycle = append(recycle, 1, i<<4|i, 2, 0)
	}
	f.Add(recycle)
	f.Add([]byte{1, 0x00, 1, 0xFF, 0, 0xFF, 0, 0x0F, 3, 0xFF, 3, 0x00, 4, 0xF0, 5, 0, 4, 0xFF, 2, 0, 0, 0x00})
	f.Add([]byte{1, 0x11, 0, 0x11, 0, 0x12, 1, 0x12, 1, 0x21, 2, 0, 1, 0x21, 0, 0x11, 3, 0x11, 3, 0x11, 4, 0x11})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table[[8]byte]
		set := NewPageSet()
		pages := map[uint32]byte{} // mapped page -> byte every slot holds
		inSet := map[uint32]bool{}
		var lookups uint64
		maxPages, maxLeaves := 0, 0
		for i := 0; i+1 < len(ops); i += 2 {
			pn := pageOf(ops[i+1])
			switch ops[i] % 6 {
			case 0:
				lookups++
				p := tab.Lookup(pn)
				if v, ok := pages[pn]; ok != (p != nil) || ok && *p != [8]byte{v, v, v, v, v, v, v, v} {
					t.Fatalf("step %d: Lookup(%#x) = %v, model has %v (%v)", i/2, pn, p, v, ok)
				}
			case 1:
				lookups++
				p := tab.Get(pn)
				if v, ok := pages[pn]; !ok && *p != [8]byte{} || ok && p[0] != v {
					t.Fatalf("step %d: Get(%#x) = %v, model has %v (%v)", i/2, pn, *p, v, ok)
				}
				v := byte(i)
				*p = [8]byte{v, v, v, v, v, v, v, v}
				pages[pn] = v
			case 2:
				leaves := map[uint32]bool{}
				for pn := range pages {
					leaves[pn>>leafBits] = true
				}
				maxPages, maxLeaves = max(maxPages, len(pages)), max(maxLeaves, len(leaves))
				tab.Reset(func(p *[8]byte) { *p = [8]byte{} })
				clear(pages)
				lookups = 0
				for d, leaf := range tab.dir {
					if leaf != nil {
						t.Fatalf("step %d: directory entry %d holds a leaf after Reset", i/2, d)
					}
				}
				if len(tab.free) > maxPages || len(tab.freeLeaves) > maxLeaves {
					t.Fatalf("step %d: Reset kept %d pages and %d leaves; the largest run mapped %d and %d",
						i/2, len(tab.free), len(tab.freeLeaves), maxPages, maxLeaves)
				}
			case 3:
				set.Add(pn)
				inSet[pn] = true
			case 4:
				if set.Has(pn) != inSet[pn] {
					t.Fatalf("step %d: Has(%#x) = %v, want %v", i/2, pn, !inSet[pn], inSet[pn])
				}
			case 5:
				set.Clear()
				for pn := range inSet {
					if set.Has(pn) {
						t.Fatalf("step %d: page %#x still in the set after Clear", i/2, pn)
					}
				}
				clear(inSet)
			}
			if hits, misses := tab.Stats(); hits+misses != lookups {
				t.Fatalf("step %d: %d hits + %d misses, want %d lookups", i/2, hits, misses, lookups)
			}
			if tab.Len() != len(pages) || set.Len() != len(inSet) {
				t.Fatalf("step %d: Len = %d and %d, want %d and %d", i/2, tab.Len(), set.Len(), len(pages), len(inSet))
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
