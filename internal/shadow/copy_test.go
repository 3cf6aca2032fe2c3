package shadow

import (
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
	watchBoth = watchDomains | watchBytes
)

// watchLog registers the watchers which selects on s, each appending every
// report to one log, except a byte-level taint assertion for a domain
// already asserted since its last clear: ByteWatcher's contract allows a
// write to report a domain once or more, so the log keeps its normal form,
// the first assertion.
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
	return log
}

// checkCopyPage prepares two shadows at domain size size with prepare and
// registers the watchers which selects on both, then copies page src onto
// page dst in one with CopyPage(dst, src, from) and in the other with a Set
// of each tainted byte of src, in the offset order from, from+1, …,
// PageSize−1, 0, …, from−1, and checks that the two agree on dst's tags and
// domain counts, the tainted-byte count, the ever-tainted pages and the
// watchers' reports.
func checkCopyPage(t *testing.T, size, dst, src, from uint32, which int, prepare func(*Shadow)) {
	t.Helper()
	got, want := MustNew(size), MustNew(size)
	prepare(got)
	prepare(want)
	gotLog, wantLog := watchLog(got, which), watchLog(want, which)
	if err := got.CopyPage(dst, src, from); err != nil {
		t.Fatalf("CopyPage(%#x, %#x, %d): %v", dst, src, from, err)
	}
	srcBase, dstBase := src<<mem.PageShift, dst<<mem.PageShift
	for i := uint32(0); i < mem.PageSize; i++ {
		off := (from + i) % mem.PageSize
		if tag := want.Get(srcBase + off); tag != TagClean {
			want.Set(dstBase+off, tag)
		}
	}
	for off := uint32(0); off < mem.PageSize; off++ {
		if g, w := got.Get(dstBase+off), want.Get(dstBase+off); g != w {
			t.Fatalf("tag at offset %d: %v, Sets wrote %v", off, g, w)
		}
	}
	for off := uint32(0); off < mem.PageSize; off += size {
		d := got.DomainIndex(dstBase + off)
		if g, w := got.DomainTaintedBytes(d), want.DomainTaintedBytes(d); g != w {
			t.Fatalf("domain %d counts %d tainted bytes, Sets counted %d", d, g, w)
		}
	}
	if g, w := got.TaintedBytes(), want.TaintedBytes(); g != w {
		t.Fatalf("%d tainted bytes, Sets left %d", g, w)
	}
	if g, w := got.EverTaintedPageNumbers(), want.EverTaintedPageNumbers(); !slices.Equal(g, w) {
		t.Fatalf("ever-tainted pages %v, Sets left %v", g, w)
	}
	if !slices.Equal(*gotLog, *wantLog) {
		t.Fatalf("watcher reports\n %v\nSets reported\n %v", *gotLog, *wantLog)
	}
}

// TestCopyPageMatchesSets compares CopyPage with per-byte Sets in rotated
// order at every domain size, over random source pages of several shapes
// and random start offsets.
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
				// Half the cases copy onto a page that held taint before,
				// and in each half a quarter watch only domains and a
				// quarter only bytes.
				dstMapped := i >= 4
				which := []int{watchBoth, watchDomains, watchBoth, watchBytes}[i%4]
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

// TestCopyPageErrors: CopyPage onto a page holding taint, from an offset
// outside a page or between pages outside the address space fails and
// changes nothing, reporting nothing to the watchers.
func TestCopyPageErrors(t *testing.T) {
	s := MustNew(64)
	s.SetRange(1<<mem.PageShift, 200, MustLabel(0))
	s.Set(2<<mem.PageShift+4095, MustLabel(2))
	log := watchLog(s, watchBoth)
	for _, c := range []struct{ dst, src, from uint32 }{
		{2, 1, 0},
		{3, 1, mem.PageSize},
		{mem.PageCount, 1, 0},
		{3, mem.PageCount, 0},
	} {
		if err := s.CopyPage(c.dst, c.src, c.from); err == nil {
			t.Errorf("CopyPage(%#x, %#x, %d) succeeded", c.dst, c.src, c.from)
		}
	}
	if len(*log) != 0 {
		t.Fatalf("failed copies reported %v", *log)
	}
	if s.TaintedBytes() != 201 || s.Get(2<<mem.PageShift) != TagClean || s.Get(2<<mem.PageShift+4095) != MustLabel(2) ||
		s.DomainTaintedBytes(s.DomainIndex(2<<mem.PageShift)) != 0 || !slices.Equal(s.EverTaintedPageNumbers(), []uint32{1, 2}) {
		t.Fatalf("failed copies changed the shadow: %d tainted bytes, ever-tainted pages %v",
			s.TaintedBytes(), s.EverTaintedPageNumbers())
	}
	if s.PagesAllocated() != 2 {
		t.Fatalf("failed copies mapped %d pages, want 2", s.PagesAllocated())
	}
}

// FuzzCopyPage compares CopyPage with per-byte Sets in rotated order (see
// checkCopyPage) over source pages written by ops: each 4-byte record is a
// little-endian page offset, a length and a tag (0 clears), one SetRange.
// sel picks the domain size (low nibble), the start offset is from modulo
// the page size, and sel's high bits place dst before or after src (0x10),
// leave dst mapped and clean (0x20) and register only the domain (0x40) or
// only the byte watcher (0x80).
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
		srcBase := src << mem.PageShift
		checkCopyPage(t, size, dst, src, uint32(from)%mem.PageSize, which, func(s *Shadow) {
			for rec := ops; len(rec) >= 4; rec = rec[4:] {
				off := (uint32(rec[0]) | uint32(rec[1])<<8) % mem.PageSize
				s.SetRange(srcBase+off, min(int(rec[2]), int(mem.PageSize-off)), Tag(rec[3]))
			}
			if sel&0x20 != 0 {
				s.Set(dst<<mem.PageShift, MustLabel(0))
				s.Set(dst<<mem.PageShift, TagClean)
			}
		})
	})
}
