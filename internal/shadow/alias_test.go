package shadow

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"latch/internal/mem"
)

// watchEntry is one report in a log both watchers write: a domain
// transition (byteLevel false, at a domain index) or a byte transition (at
// an address).
type watchEntry struct {
	byteLevel bool
	at        uint32
	tainted   bool
}

// The watchers a watchLog registers.
const (
	watchDomains = 1 << iota
	watchBytes
	watchPages
	watchBoth = watchDomains | watchBytes
)

// watchLog registers the watchers which selects on s, each appending every
// report to one log, except a byte-level taint assertion for a domain
// already asserted since its last clear: ByteWatcher's contract allows a
// write to report a domain once or more, so the log keeps its normal form,
// the first assertion. A page watcher's report is logged as the domain
// transitions it stands for, in the order it gives, so the domain reports
// read the same whichever watcher took an aliased page's domains; they
// come before the page's byte reports, not between them.
func watchLog(s *Shadow, which int) *[]watchEntry {
	log := new([]watchEntry)
	if which&watchDomains != 0 {
		s.OnDomainTransition(func(d uint32, tainted bool) {
			*log = append(*log, watchEntry{false, d, tainted})
		})
	}
	if which&watchBytes != 0 {
		asserted := map[uint32]bool{}
		s.OnByteTransition(func(addr uint32, tainted bool) {
			d := s.DomainIndex(addr)
			if tainted && asserted[d] {
				return
			}
			asserted[d] = tainted
			*log = append(*log, watchEntry{true, addr, tainted})
		})
	}
	if which&watchPages != 0 {
		s.OnPageAlias(func(first, n, start uint32, tainted []uint64) {
			for i := range n {
				if d := (start + i) % n; tainted[d/64]&(1<<(d%64)) != 0 {
					*log = append(*log, watchEntry{false, first + d, true})
				}
			}
		})
	}
	return log
}

// aliasPair is two shadows prepared alike that map pages onto others
// differently: got with AliasPage, want with per-byte Sets into pages of
// their own. Each logs the watchers which selects.
type aliasPair struct {
	got, want       *Shadow
	gotLog, wantLog *[]watchEntry
	which           int
}

func newAliasPair(size uint32, which int, prepare func(*Shadow)) *aliasPair {
	a := &aliasPair{got: MustNew(size), want: MustNew(size), which: which}
	prepare(a.got)
	prepare(a.want)
	a.gotLog, a.wantLog = watchLog(a.got, which), watchLog(a.want, which)
	return a
}

// alias maps page dst onto page src: in got with AliasPage(dst, src, from),
// in want with a Set of each tainted byte of src, in the offset order from,
// from+1, …, PageSize−1, 0, …, from−1.
func (a *aliasPair) alias(t *testing.T, dst, src, from uint32) {
	t.Helper()
	if err := a.got.AliasPage(dst, src, from); err != nil {
		t.Fatalf("AliasPage(%#x, %#x, %d): %v", dst, src, from, err)
	}
	srcBase, dstBase := src<<mem.PageShift, dst<<mem.PageShift
	for i := uint32(0); i < mem.PageSize; i++ {
		off := (from + i) % mem.PageSize
		if tag := a.want.Get(srcBase + off); tag != TagClean {
			a.want.Set(dstBase+off, tag)
		}
	}
}

// write applies fn to both shadows.
func (a *aliasPair) write(fn func(*Shadow)) {
	fn(a.got)
	fn(a.want)
}

// check fails unless the two shadows agree on the tags and domain counts
// of pages, the tainted-byte count, the ever-tainted pages and the
// watchers' reports: one sequence, or with a page watcher registered, one
// for domains and one for bytes.
func (a *aliasPair) check(t *testing.T, pages ...uint32) {
	t.Helper()
	for _, pn := range pages {
		if err := samePage(a.got, a.want, pn); err != nil {
			t.Fatalf("page %#x: %v", pn, err)
		}
	}
	if g, w := a.got.TaintedBytes(), a.want.TaintedBytes(); g != w {
		t.Fatalf("%d tainted bytes, Sets left %d", g, w)
	}
	if g, w := a.got.EverTaintedPageNumbers(), a.want.EverTaintedPageNumbers(); !slices.Equal(g, w) {
		t.Fatalf("ever-tainted pages %v, Sets left %v", g, w)
	}
	for _, byteLevel := range []bool{false, true} {
		got, want := *a.gotLog, *a.wantLog
		if a.which&watchPages != 0 {
			other := func(e watchEntry) bool { return e.byteLevel != byteLevel }
			got, want = slices.DeleteFunc(slices.Clone(got), other), slices.DeleteFunc(slices.Clone(want), other)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("watcher reports\n %v\nSets reported\n %v", got, want)
		}
	}
}

// samePage compares page pn of got and want: its tags and its domains'
// tainted-byte counts.
func samePage(got, want *Shadow, pn uint32) error {
	base := pn << mem.PageShift
	for off := uint32(0); off < mem.PageSize; off++ {
		if g, w := got.Get(base+off), want.Get(base+off); g != w {
			return fmt.Errorf("tag at offset %d: %v, Sets wrote %v", off, g, w)
		}
	}
	for off := uint32(0); off < mem.PageSize; off += got.DomainSize() {
		d := got.DomainIndex(base + off)
		if g, w := got.DomainTaintedBytes(d), want.DomainTaintedBytes(d); g != w {
			return fmt.Errorf("domain %d counts %d tainted bytes, Sets counted %d", d, g, w)
		}
	}
	return nil
}

// checkCopyPage prepares two shadows at domain size size with prepare and
// registers the watchers which selects on both, then copies page src onto
// page dst in one with AliasPage(dst, src, from) and in the other with a
// Set of each tainted byte of src, in the offset order from, from+1, …,
// PageSize−1, 0, …, from−1, and checks that the two agree (aliasPair.check).
func checkCopyPage(t *testing.T, size, dst, src, from uint32, which int, prepare func(*Shadow)) {
	t.Helper()
	a := newAliasPair(size, which, prepare)
	a.alias(t, dst, src, from)
	a.check(t, dst, src)
}

// TestCopyPageMatchesSets compares the page copy AliasPage makes with
// per-byte Sets in rotated order at every domain size, over random source
// pages of several shapes and random start offsets, with its domains
// reported to the domain watcher or to a page watcher.
func TestCopyPageMatchesSets(t *testing.T) {
	const src, dst = 5, 9
	srcBase := uint32(src << mem.PageShift)
	randomTag := func(r *rand.Rand) Tag { return Tag(1 + r.Intn(255)) }
	shapes := []struct {
		name string
		fill func(s *Shadow, r *rand.Rand, size, from uint32)
	}{
		{"sparse bytes", func(s *Shadow, r *rand.Rand, _, _ uint32) {
			for range 1 + r.Intn(64) {
				s.Set(srcBase+uint32(r.Intn(mem.PageSize)), randomTag(r))
			}
		}},
		{"runs", func(s *Shadow, r *rand.Rand, _, _ uint32) {
			for range 1 + r.Intn(16) {
				off := r.Intn(mem.PageSize)
				s.SetRange(srcBase+uint32(off), min(1+r.Intn(300), mem.PageSize-off), randomTag(r))
			}
		}},
		{"full page", func(s *Shadow, r *rand.Rand, _, _ uint32) {
			s.SetRange(srcBase, mem.PageSize, randomTag(r))
		}},
		{"domain of from tainted only before it", func(s *Shadow, r *rand.Rand, size, from uint32) {
			lo := from &^ (size - 1)
			for a := lo; a < from; a++ {
				if r.Intn(2) == 0 {
					s.Set(srcBase+a, randomTag(r))
				}
			}
			for range r.Intn(8) {
				if off := uint32(r.Intn(mem.PageSize)); off < lo || off >= lo+size {
					s.Set(srcBase+off, randomTag(r))
				}
			}
		}},
		{"clean", func(s *Shadow, _ *rand.Rand, _, _ uint32) {
			s.SetRange(srcBase, 100, MustLabel(3))
			s.SetRange(srcBase, 100, TagClean)
		}},
		{"unmapped", func(*Shadow, *rand.Rand, uint32, uint32) {}},
	}
	r := rand.New(rand.NewSource(1))
	for size := uint32(MinDomainSize); size <= MaxDomainSize; size *= 2 {
		for _, sh := range shapes {
			for i := range 8 {
				from := uint32(r.Intn(mem.PageSize))
				if sh.name == "domain of from tainted only before it" {
					from |= 1 // leave the domain at least one byte before from
				}
				seed := r.Int63()
				// Half the cases alias onto a page that held taint before.
				// In each half one case reports to both watchers, one to
				// the domain and one to the byte watcher alone, and one
				// to both with a page watcher standing in for the domain
				// watcher.
				dstMapped := i >= 4
				which := []int{watchBoth, watchDomains, watchBoth | watchPages, watchBytes}[i%4]
				t.Run(fmt.Sprintf("%d/%s/%d", size, sh.name, i), func(t *testing.T) {
					checkCopyPage(t, size, dst, src, from, which, func(s *Shadow) {
						sh.fill(s, rand.New(rand.NewSource(seed)), size, from)
						if dstMapped {
							s.Set(dst<<mem.PageShift+7, MustLabel(1))
							s.Set(dst<<mem.PageShift+7, TagClean)
						}
					})
				})
			}
		}
	}
}

// TestCopyPageErrors: AliasPage onto a page holding taint, from an offset
// outside a page or between pages outside the address space fails and
// changes nothing, reporting nothing to the watchers.
func TestCopyPageErrors(t *testing.T) {
	s := MustNew(64)
	s.SetRange(1<<mem.PageShift, 200, MustLabel(0))
	s.Set(2<<mem.PageShift+4095, MustLabel(2))
	log := watchLog(s, watchBoth|watchPages)
	for _, c := range []struct{ dst, src, from uint32 }{
		{2, 1, 0},
		{3, 1, mem.PageSize},
		{mem.PageCount, 1, 0},
		{3, mem.PageCount, 0},
	} {
		if err := s.AliasPage(c.dst, c.src, c.from); err == nil {
			t.Errorf("AliasPage(%#x, %#x, %d) succeeded", c.dst, c.src, c.from)
		}
	}
	if len(*log) != 0 {
		t.Fatalf("failed aliases reported %v", *log)
	}
	if s.TaintedBytes() != 201 || s.Get(2<<mem.PageShift) != TagClean || s.Get(2<<mem.PageShift+4095) != MustLabel(2) ||
		s.DomainTaintedBytes(s.DomainIndex(2<<mem.PageShift)) != 0 || !slices.Equal(s.EverTaintedPageNumbers(), []uint32{1, 2}) {
		t.Fatalf("failed aliases changed the shadow: %d tainted bytes, ever-tainted pages %v",
			s.TaintedBytes(), s.EverTaintedPageNumbers())
	}
	if s.PagesAllocated() != 2 || s.pages.Mapped(3) {
		t.Fatalf("failed aliases mapped %d pages, want 2", s.PagesAllocated())
	}
}

// FuzzCopyPage compares the page copy AliasPage makes with per-byte Sets in
// rotated order (see checkCopyPage) over source pages written by ops: each
// 4-byte record is a little-endian page offset, a length and a tag (0
// clears), one SetRange. sel picks the domain size (low nibble), the start
// offset is from modulo the page size, and sel's high bits place dst before
// or after src (0x10), leave dst mapped and clean (0x20) and register only
// the domain (0x40) or only the byte watcher (0x80).
func FuzzCopyPage(f *testing.F) {
	f.Add(uint8(3), uint16(17), []byte{0, 0, 16, 1, 64, 0, 16, 1, 0xf0, 0x0f, 40, 4})
	f.Add(uint8(0x10), uint16(4095), []byte{0xff, 0x0f, 1, 0x80})
	f.Add(uint8(9), uint16(2048), []byte{0, 0, 255, 1, 0, 8, 255, 2, 0, 0, 10, 0})
	f.Add(uint8(0x26), uint16(100), []byte{96, 0, 4, 1})
	f.Add(uint8(1), uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, sel uint8, from uint16, ops []byte) {
		size := uint32(MinDomainSize) << ((sel & 0xf) % 10)
		src, dst := uint32(7), uint32(3)
		if sel&0x10 != 0 {
			dst = 11
		}
		which := int(sel >> 6)
		if which == 0 {
			which = watchBoth
		}
		checkCopyPage(t, size, dst, src, uint32(from)%mem.PageSize, which, func(s *Shadow) {
			writePage(s, src, ops)
			if sel&0x20 != 0 {
				s.Set(dst<<mem.PageShift, MustLabel(0))
				s.Set(dst<<mem.PageShift, TagClean)
			}
		})
	})
}

// writePage writes page pn as ops says: each 4-byte record is a
// little-endian page offset, a length and a tag (0 clears), one SetRange.
func writePage(s *Shadow, pn uint32, ops []byte) {
	for rec := ops; len(rec) >= 4; rec = rec[4:] {
		off := (uint32(rec[0]) | uint32(rec[1])<<8) % mem.PageSize
		s.SetRange(pn<<mem.PageShift+off, min(int(rec[2]), int(mem.PageSize-off)), Tag(rec[3]))
	}
}

// FuzzAliasPage checks copy-on-write: page src, written by ops (see
// writePage), is aliased twice, onto dst from offset from and onto dst2
// from offset PageSize−1−from, and then writes, each 5-byte record a Set or
// SetRange to any of the three pages, change only the page they write. The
// shadow must match one whose pages were copied by per-byte Sets and took
// the same writes: the three pages' tags and domain counts, the
// tainted-byte count, the ever-tainted pages and the watchers' reports. In
// a write record, byte 0 picks the page (modulo 3) and Set (0x04) or
// SetRange, bytes 1–2 are a little-endian page offset, byte 3 SetRange's
// length and byte 4 the tag (0 clears). sel picks the domain size (low
// nibble) and, in its high bits, dst before or after src (0x10) and the
// watchers: both, the domain watcher, the byte watcher, or both with a page
// watcher standing in for the domain watcher on aliases.
func FuzzAliasPage(f *testing.F) {
	pattern := []byte{0, 0, 16, 1, 64, 0, 16, 1, 0xf0, 0x0f, 40, 4}
	f.Add(uint8(3), uint16(17), pattern, []byte{4, 0x10, 0, 0, 9})                          // taint an alias by Set
	f.Add(uint8(0xc3), uint16(17), pattern, []byte{1, 4, 0, 40, 0})                         // clear an alias by SetRange
	f.Add(uint8(0x53), uint16(4000), pattern, []byte{0, 0, 0, 200, 3, 2, 0xf8, 0x0f, 8, 0}) // write the pattern, clear the other alias
	// Clear the second alias and taint the first by Set, then clear the
	// pattern page by SetRange, at 8-byte domains under the byte watcher.
	f.Add(uint8(0x80), uint16(0), []byte{0, 0, 255, 1, 0, 8, 255, 2}, []byte{5, 3, 0, 0, 0, 4, 3, 0, 0, 7, 0, 4, 3, 64, 0})
	f.Add(uint8(0xc9), uint16(2048), []byte{0, 0, 0, 0}, []byte{1, 0, 0, 8, 1}) // an unmapped pattern page aliases nothing
	f.Fuzz(func(t *testing.T, sel uint8, from uint16, ops, writes []byte) {
		size := uint32(MinDomainSize) << ((sel & 0xf) % 10)
		src, dst, dst2 := uint32(7), uint32(3), uint32(20)
		if sel&0x10 != 0 {
			dst = 11
		}
		which := []int{watchBoth, watchDomains, watchBytes, watchBoth | watchPages}[sel>>6]
		a := newAliasPair(size, which, func(s *Shadow) { writePage(s, src, ops) })
		a.alias(t, dst, src, uint32(from)%mem.PageSize)
		a.alias(t, dst2, src, mem.PageSize-1-uint32(from)%mem.PageSize)
		pages := []uint32{src, dst, dst2}
		for rec := writes; len(rec) >= 5; rec = rec[5:] {
			addr := pages[rec[0]%3]<<mem.PageShift + (uint32(rec[1])|uint32(rec[2])<<8)%mem.PageSize
			if rec[0]&0x04 != 0 {
				a.write(func(s *Shadow) { s.Set(addr, Tag(rec[4])) })
			} else {
				n := min(int(rec[3]), int(mem.PageSize-addr%mem.PageSize))
				a.write(func(s *Shadow) { s.SetRange(addr, n, Tag(rec[4])) })
			}
		}
		a.check(t, pages...)
	})
}

// aliasedLayout writes pattern page 5 of a at 64-byte domains and aliases
// pages 9 and 12 onto it.
func aliasedLayout(t *testing.T) *aliasPair {
	t.Helper()
	a := newAliasPair(64, watchBoth, func(s *Shadow) {
		base := uint32(5 << mem.PageShift)
		s.SetRange(base+16, 48, MustLabel(0))
		s.SetRange(base+1000, 200, MustLabel(2))
		s.Set(base+4095, MustLabel(7))
	})
	a.alias(t, 9, 5, 0)
	a.alias(t, 12, 5, 700)
	if n := a.got.PagesAllocated(); n != 1 {
		t.Fatalf("the aliased layout holds %d pages of storage, want its pattern page alone", n)
	}
	return a
}

// TestAliasWritesCopy: a taint and a clear through an alias or through its
// pattern page, by Set and by SetRange, change only the page written; the
// others read what per-byte-set copies read. The write copies its page
// first: the shadow holds one more page of storage, the written page's
// entry resolves to it for reads and writes alike, and a read of the
// written byte after the write, through a translation cache that held the
// shared page, sees the write.
func TestAliasWritesCopy(t *testing.T) {
	for _, c := range []struct {
		name string
		pn   uint32
		off  uint32
		fn   func(s *Shadow, addr uint32)
	}{
		{"taint alias by Set", 9, 3000, func(s *Shadow, addr uint32) { s.Set(addr, MustLabel(1)) }},
		{"clear alias by Set", 9, 20, func(s *Shadow, addr uint32) { s.Set(addr, TagClean) }},
		{"taint alias by SetRange", 12, 10, func(s *Shadow, addr uint32) { s.SetRange(addr, 100, MustLabel(3)) }},
		{"clear alias by SetRange", 12, 1000, func(s *Shadow, addr uint32) { s.SetRange(addr, 150, TagClean) }},
		{"taint pattern by Set", 5, 2000, func(s *Shadow, addr uint32) { s.Set(addr, MustLabel(4)) }},
		{"clear pattern by Set", 5, 4095, func(s *Shadow, addr uint32) { s.Set(addr, TagClean) }},
		{"taint pattern by SetRange", 5, 1100, func(s *Shadow, addr uint32) { s.SetRange(addr, 300, MustLabel(5)) }},
		{"clear pattern by SetRange", 5, 0, func(s *Shadow, addr uint32) { s.SetRange(addr, 64, TagClean) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := aliasedLayout(t)
			addr := c.pn<<mem.PageShift + c.off
			before := a.got.Get(addr) // the read key now names the shared page
			a.write(func(s *Shadow) { c.fn(s, addr) })
			if g, w := a.got.Get(addr), a.want.Get(addr); g != w {
				t.Fatalf("read %v at %#x after the write (%v before), Sets read %v", g, addr, before, w)
			}
			a.check(t, 5, 9, 12)
			if n := a.got.PagesAllocated(); n != 2 {
				t.Fatalf("%d pages of storage after one write, want 2", n)
			}
			written := a.got.pages.Lookup(c.pn)
			if w := a.got.pages.Writable(c.pn); w != written {
				t.Fatal("a write after the copy went to another page than reads see")
			}
			var others []*page
			for _, pn := range []uint32{5, 9, 12} {
				if pn != c.pn {
					others = append(others, a.got.pages.Lookup(pn))
				}
			}
			if others[0] != others[1] || others[0] == written {
				t.Fatal("the pages not written do not share their storage apart from the written one")
			}
		})
	}
}

// TestAliasReset: Reset unmaps an aliased layout, the copies its writes
// made included, and a second layout aliased onto another pattern page,
// partly over the first one's pages, reads as that layout written alone:
// clean wherever it has no taint, with its counters and ever-tainted pages.
func TestAliasReset(t *testing.T) {
	got := MustNew(64)
	got.SetRange(5<<mem.PageShift+100, 900, MustLabel(0))
	for pn := uint32(6); pn < 20; pn++ {
		if err := got.AliasPage(pn, 5, pn*17%mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	got.Set(8<<mem.PageShift+4000, MustLabel(1))
	got.SetRange(5<<mem.PageShift, 200, TagClean)
	got.Reset()
	if got.PagesAllocated() != 0 || got.TaintedBytes() != 0 || got.EverTaintedPages() != 0 {
		t.Fatalf("Reset left %d pages, %d tainted bytes, %d ever-tainted pages",
			got.PagesAllocated(), got.TaintedBytes(), got.EverTaintedPages())
	}
	a := &aliasPair{got: got, want: MustNew(64)}
	a.gotLog, a.wantLog = watchLog(a.got, watchBoth), watchLog(a.want, watchBoth)
	a.write(func(s *Shadow) { s.SetRange(30<<mem.PageShift+2000, 64, MustLabel(2)) })
	for _, pn := range []uint32{7, 8, 31} {
		a.alias(t, pn, 30, 5)
	}
	var pages []uint32
	for pn := uint32(5); pn < 32; pn++ {
		pages = append(pages, pn)
	}
	a.check(t, pages...)
	if n := a.got.PagesAllocated(); n != 1 {
		t.Fatalf("the second layout holds %d pages of storage, want 1", n)
	}
}

// TestAliasSnapshotRoundTrip: WriteTo writes an aliased layout, one of its
// aliases written since, as it writes the layout set byte by byte, and
// ReadSnapshot reads it back.
func TestAliasSnapshotRoundTrip(t *testing.T) {
	a := aliasedLayout(t)
	a.write(func(s *Shadow) { s.SetRange(9<<mem.PageShift+3000, 10, MustLabel(6)) })
	var got, want bytes.Buffer
	if _, err := a.got.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := a.want.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("the aliased layout's snapshot differs from the one written byte by byte")
	}
	back, err := ReadSnapshot(&got)
	if err != nil {
		t.Fatal(err)
	}
	for _, pn := range []uint32{5, 9, 12} {
		if err := samePage(back, a.got, pn); err != nil {
			t.Fatalf("page %#x read back: %v", pn, err)
		}
	}
	if back.TaintedBytes() != a.got.TaintedBytes() {
		t.Fatalf("read back %d tainted bytes, wrote %d", back.TaintedBytes(), a.got.TaintedBytes())
	}
}
