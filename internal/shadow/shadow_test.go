package shadow

import (
	"testing"
	"testing/quick"

	"latch/internal/mem"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range []uint32{0, 7, 12, 4, 8192} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%d) should fail", bad)
		}
	}
	for _, good := range []uint32{8, 64, 256, 4096} {
		if _, err := New(good); err != nil {
			t.Errorf("New(%d): %v", good, err)
		}
	}
}

func TestLabel(t *testing.T) {
	if MustLabel(0) != 1 || MustLabel(7) != 0x80 {
		t.Fatal("Label values wrong")
	}
	for _, bad := range []int{-1, 8, 100} {
		if tag, err := Label(bad); err == nil || tag != TagClean {
			t.Errorf("Label(%d) = (%v, %v), want error", bad, tag, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLabel(8) should panic")
		}
	}()
	MustLabel(8)
}

func TestTagOps(t *testing.T) {
	a, b := MustLabel(0), MustLabel(3)
	if !a.Union(b).Tainted() || a.Union(b) != 0x09 {
		t.Fatal("Union wrong")
	}
	if TagClean.Tainted() {
		t.Fatal("clean tag reports tainted")
	}
}

func TestSetGet(t *testing.T) {
	s := MustNew(64)
	if old := s.Set(100, MustLabel(1)); old != TagClean {
		t.Fatalf("first Set returned %v", old)
	}
	if s.Get(100) != MustLabel(1) {
		t.Fatal("Get after Set wrong")
	}
	if old := s.Set(100, MustLabel(2)); old != MustLabel(1) {
		t.Fatalf("second Set returned %v", old)
	}
	if old := s.Set(100, TagClean); old != MustLabel(2) {
		t.Fatalf("clearing Set returned %v", old)
	}
	if s.Get(100) != TagClean {
		t.Fatal("byte not cleared")
	}
	// Clearing an address never touched must not allocate a page.
	s2 := MustNew(64)
	s2.Set(5000, TagClean)
	if s2.PagesAllocated() != 0 {
		t.Fatal("clearing untracked byte allocated a page")
	}
}

func TestCounters(t *testing.T) {
	s := MustNew(64)
	s.SetRange(0, 10, MustLabel(0))
	if s.TaintedBytes() != 10 {
		t.Fatalf("TaintedBytes = %d", s.TaintedBytes())
	}
	// Re-tainting with a different tag must not double-count.
	s.SetRange(0, 10, MustLabel(1))
	if s.TaintedBytes() != 10 {
		t.Fatalf("TaintedBytes after retag = %d", s.TaintedBytes())
	}
	s.SetRange(0, 5, TagClean)
	if s.TaintedBytes() != 5 {
		t.Fatalf("TaintedBytes after partial clear = %d", s.TaintedBytes())
	}
}

func TestDomainTracking(t *testing.T) {
	s := MustNew(64)
	d := s.DomainIndex(130) // domain 2 (bytes 128..191)
	if d != 2 {
		t.Fatalf("DomainIndex(130) = %d", d)
	}
	if s.DomainBase(2) != 128 {
		t.Fatalf("DomainBase(2) = %d", s.DomainBase(2))
	}
	s.Set(130, MustLabel(0))
	s.Set(131, MustLabel(0))
	if !s.DomainTainted(2) || s.DomainTaintedBytes(2) != 2 {
		t.Fatal("domain counters wrong")
	}
	if s.DomainTainted(1) || s.DomainTainted(3) {
		t.Fatal("neighbor domains tainted")
	}
	s.Set(130, TagClean)
	if s.DomainTaintedBytes(2) != 1 {
		t.Fatal("domain count after clear wrong")
	}
	s.Set(131, TagClean)
	if s.DomainTainted(2) {
		t.Fatal("domain still tainted after full clear")
	}
}

func TestWatchers(t *testing.T) {
	s := MustNew(64)
	var domEvents []struct {
		unit    uint32
		tainted bool
	}
	s.OnDomainTransition(func(u uint32, tt bool) {
		domEvents = append(domEvents, struct {
			unit    uint32
			tainted bool
		}{u, tt})
	})
	s.Set(64, MustLabel(0)) // domain 1 taints
	s.Set(65, MustLabel(0)) // no transition
	s.Set(64, TagClean)
	s.Set(65, TagClean) // domain 1 clears
	if len(domEvents) != 2 || !domEvents[0].tainted || domEvents[0].unit != 1 ||
		domEvents[1].tainted || domEvents[1].unit != 1 {
		t.Fatalf("domain events = %+v", domEvents)
	}
}

func TestRangeTag(t *testing.T) {
	s := MustNew(64)
	s.Set(10, MustLabel(0))
	s.Set(12, MustLabel(3))
	if got := s.RangeTag(10, 4); got != MustLabel(0)|MustLabel(3) {
		t.Fatalf("RangeTag = %v", got)
	}
	if s.RangeTainted(13, 4) {
		t.Fatal("clean range reported tainted")
	}
	if !s.RangeTainted(0, 11) {
		t.Fatal("tainted range reported clean")
	}
}

func TestTaintedAtGranularities(t *testing.T) {
	s := MustNew(64)
	s.Set(100, MustLabel(0)) // inside domain [64,128), page 0
	cases := []struct {
		addr uint32
		unit uint32
		want bool
	}{
		{100, 8, true},   // [96,104)
		{96, 8, true},    // same unit
		{104, 8, false},  // [104,112)
		{100, 64, true},  // its own domain
		{32, 64, false},  // prior domain
		{100, 256, true}, // [0,256)
		{300, 256, false},
		{100, 4096, true},   // page 0
		{5000, 4096, false}, // page 1
		{100, 128, true},    // sub-page, above domain size: aggregates counters
		{200, 128, false},   // [128,256) clean
	}
	for _, c := range cases {
		if got := s.MustTaintedAt(c.addr, c.unit); got != c.want {
			t.Errorf("TaintedAt(%d, %d) = %v, want %v", c.addr, c.unit, got, c.want)
		}
	}
}

func TestTaintedAtBadUnit(t *testing.T) {
	s := MustNew(64)
	for _, bad := range []uint32{0, 3, 48} {
		if _, err := s.TaintedAt(0, bad); err == nil {
			t.Errorf("TaintedAt(0, %d): want error", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustTaintedAt on a bad unit should panic")
		}
	}()
	s.MustTaintedAt(0, 48)
}

func TestTaintedAtWrapsAtTopOfAddressSpace(t *testing.T) {
	// A page-or-larger unit ending at 4 GiB used to terminate its scan loop
	// immediately (base+unitSize wraps to 0), reporting the top pages clean.
	s := MustNew(64)
	top := uint32(0xFFFF_F000) // last page
	s.Set(top+12, MustLabel(0))
	if !s.MustTaintedAt(top, mem.PageSize) {
		t.Fatal("top page reported clean at page granularity")
	}
	if !s.MustTaintedAt(0xFFFF_0000, 1<<16) {
		t.Fatal("64 KiB unit covering the top page reported clean")
	}
	if s.MustTaintedAt(0xFFFE_0000, 1<<16) {
		t.Fatal("clean 64 KiB unit reported tainted")
	}
}

func TestEverTaintedPages(t *testing.T) {
	s := MustNew(64)
	s.Set(0, MustLabel(0))
	s.Set(mem.PageSize*3, MustLabel(0))
	s.Set(0, TagClean)
	if s.EverTaintedPages() != 2 {
		t.Fatalf("EverTaintedPages = %d", s.EverTaintedPages())
	}
	if s.CurrentTaintedPages() != 1 {
		t.Fatalf("CurrentTaintedPages = %d", s.CurrentTaintedPages())
	}
	pns := s.EverTaintedPageNumbers()
	if len(pns) != 2 || pns[0] != 0 || pns[1] != 3 {
		t.Fatalf("EverTaintedPageNumbers = %v", pns)
	}
}

func TestReset(t *testing.T) {
	s := MustNew(64)
	s.SetRange(0, 100, MustLabel(0))
	s.Reset()
	if s.TaintedBytes() != 0 || s.EverTaintedPages() != 0 || s.Get(0) != TagClean {
		t.Fatal("Reset incomplete")
	}
}

// Each run taints one page under its own leaf table of the page map (the
// regions are 256 MiB apart); once the first run has left a page and a leaf
// on the free lists, later runs must reuse them and allocate nothing.
func TestResetRecyclesLeaves(t *testing.T) {
	s := MustNew(64)
	i := uint32(0)
	allocs := testing.AllocsPerRun(15, func() {
		s.SetRange(i<<28, 8, MustLabel(0))
		s.Reset()
		i++
	})
	if allocs != 0 {
		t.Fatalf("a run after Reset allocated %v times, want 0", allocs)
	}
	if s.PagesAllocated() != 0 || s.TaintedBytes() != 0 || s.EverTaintedPages() != 0 {
		t.Fatalf("Reset left %d pages, %d tainted bytes, %d ever-tainted pages",
			s.PagesAllocated(), s.TaintedBytes(), s.EverTaintedPages())
	}
	if s.Get(15<<28) != TagClean {
		t.Fatal("a recycled region reads tainted")
	}
}

// Property: the domain counter invariant — a domain is tainted iff at least
// one byte in it is tainted — holds under arbitrary set/clear sequences.
func TestDomainCounterInvariant(t *testing.T) {
	type op struct {
		Addr  uint16 // keep within a few pages
		Taint bool
	}
	f := func(ops []op) bool {
		s := MustNew(64)
		ref := make(map[uint32]bool)
		for _, o := range ops {
			addr := uint32(o.Addr)
			if o.Taint {
				s.Set(addr, MustLabel(0))
				ref[addr] = true
			} else {
				s.Set(addr, TagClean)
				delete(ref, addr)
			}
		}
		// Check every domain in the touched range.
		for d := uint32(0); d <= s.DomainIndex(0xFFFF); d++ {
			want := false
			for a := s.DomainBase(d); a < s.DomainBase(d+1); a++ {
				if ref[a] {
					want = true
					break
				}
			}
			if s.DomainTainted(d) != want {
				return false
			}
		}
		// Global byte count matches.
		return s.TaintedBytes() == uint64(len(ref))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: TaintedAt at any granularity is consistent with byte truth.
func TestTaintedAtInvariant(t *testing.T) {
	f := func(addrs []uint16, probe uint16, unitSel uint8) bool {
		s := MustNew(64)
		for _, a := range addrs {
			s.Set(uint32(a), MustLabel(0))
		}
		units := []uint32{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
		unit := units[int(unitSel)%len(units)]
		base := uint32(probe) &^ (unit - 1)
		want := false
		for i := uint32(0); i < unit; i++ {
			if s.Get(base+i) != TagClean {
				want = true
				break
			}
		}
		return s.MustTaintedAt(uint32(probe), unit) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSet(b *testing.B) {
	s := MustNew(64)
	for i := 0; i < b.N; i++ {
		s.Set(uint32(i)%(1<<20), MustLabel(0))
	}
}

func BenchmarkTaintedAtDomain(b *testing.B) {
	s := MustNew(64)
	s.SetRange(0, 1<<16, MustLabel(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MustTaintedAt(uint32(i)%(1<<20), 64)
	}
}
