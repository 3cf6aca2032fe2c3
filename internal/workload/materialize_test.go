package workload

import (
	"fmt"
	"slices"
	"testing"

	"latch/internal/latch"
	"latch/internal/mem"
	"latch/internal/shadow"
	"latch/internal/trace"
)

// writeRuns writes g's unsampled layout into sh run by run: every tainted
// page in ascending order, each page's runs from its phase offset up,
// wrapping once, as one or two SetRange calls per run. It is the reference
// materialize's copying write is checked against.
func writeRuns(g *Generator, sh *shadow.Shadow) {
	tag := shadow.MustLabel(0)
	for pi := 0; pi < g.p.PagesTainted; pi++ {
		page := g.taintStart + pi
		pageBase := g.pageAddr(page)
		if g.gbpp == 0 {
			sh.SetRange(pageBase, mem.PageSize, tag)
			continue
		}
		for off := 0; off < mem.PageSize; off += g.period {
			n := min(g.p.RunLen, mem.PageSize-off)
			start := g.rotate(page, off)
			first := min(n, mem.PageSize-start)
			sh.SetRange(pageBase+uint32(start), first, tag)
			if n > first {
				sh.SetRange(pageBase, n-first, tag)
			}
		}
	}
}

// report is one watcher report: a domain transition (byteLevel false, at a
// domain index) or a byte transition (at an address).
type report struct {
	byteLevel bool
	at        uint32
	tainted   bool
}

// layoutWatch logs what a shadow's watchers see while a layout is written,
// both watchers into one log, and feeds the domain transitions to a
// recorder, as the engine's bulk load does. A byte-level taint assertion
// for a domain already asserted since its last clear is not logged:
// ByteWatcher's contract lets a write repeat it, so the log keeps its
// normal form.
type layoutWatch struct {
	log []report
	rec *latch.Recorder
}

func newLayoutWatch(sh *shadow.Shadow) *layoutWatch {
	w := &layoutWatch{rec: latch.NewRecorder()}
	record := w.rec.Watcher()
	asserted := map[uint32]bool{}
	sh.OnDomainTransition(func(d uint32, tainted bool) {
		w.log = append(w.log, report{false, d, tainted})
		record(d, tainted)
	})
	sh.OnByteTransition(func(addr uint32, tainted bool) {
		d := sh.DomainIndex(addr)
		if tainted && asserted[d] {
			return
		}
		asserted[d] = tainted
		w.log = append(w.log, report{true, addr, tainted})
	})
	return w
}

// TestMaterializeMatchesRunWrites is the oracle for the layout write: for
// every registered profile, and for a period that does not divide the
// page, at 8-, 64- and 256-byte domains, materialize leaves the footprint,
// the tainted-byte count and the ever-tainted pages as writeRuns does, and
// reports the same transitions to the watchers, so the engine's recorder
// takes the same steps.
func TestMaterializeMatchesRunWrites(t *testing.T) {
	var profiles []Profile
	for _, name := range Names() {
		profiles = append(profiles, MustGet(name))
	}
	// soplex's footprint with a 68-byte period over enough pages to
	// repeat, which leaves a page's last run cut at the page end or whole.
	for _, shape := range []struct{ run, gap, pages int }{{20, 48, 84}, {8, 60, 84}} {
		p := MustGet("soplex")
		p.Name = fmt.Sprintf("soplex-%d-%d", shape.run, shape.gap)
		p.RunLen, p.GapLen = shape.run, shape.gap
		p.PagesAccessed += shape.pages - p.PagesTainted
		p.PagesTainted = shape.pages
		profiles = append(profiles, p)
	}
	for _, p := range profiles {
		for _, size := range []uint32{8, 64, 256} {
			got, want := shadow.MustNew(size), shadow.MustNew(size)
			gotW, wantW := newLayoutWatch(got), newLayoutWatch(want)
			g, err := NewGeneratorOn(p, got)
			if err != nil {
				t.Fatal(err)
			}
			writeRuns(g, want)
			name := fmt.Sprintf("%s at %d B", p.Name, size)
			if i := firstDifference(gotW.log, wantW.log); i >= 0 {
				t.Fatalf("%s: watcher report %d of %d/%d differs", name, i, len(gotW.log), len(wantW.log))
			}
			gotSteps, err1 := gotW.rec.Steps()
			wantSteps, err2 := wantW.rec.Steps()
			if err1 != nil || err2 != nil || !slices.Equal(gotSteps, wantSteps) {
				t.Fatalf("%s: recorded %d steps (%v), run writes %d (%v)", name, len(gotSteps), err1, len(wantSteps), err2)
			}
			if got.TaintedBytes() != want.TaintedBytes() {
				t.Fatalf("%s: %d tainted bytes, run writes %d", name, got.TaintedBytes(), want.TaintedBytes())
			}
			if gotPages, wantPages := got.EverTaintedPageNumbers(), want.EverTaintedPageNumbers(); !slices.Equal(gotPages, wantPages) {
				t.Fatalf("%s: %d ever-tainted pages, run writes %d", name, len(gotPages), len(wantPages))
			}
			for pi := 0; pi < p.PagesAccessed; pi++ {
				if err := samePage(got, want, g.pageAddr(pi)); err != nil {
					t.Fatalf("%s: footprint page %d: %v", name, pi, err)
				}
			}
		}
	}
}

// firstDifference returns the index of the first report where a and b
// differ, or -1 when they are equal.
func firstDifference(a, b []report) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// samePage compares the page at base in got and want: its tags and its
// domains' tainted-byte counts.
func samePage(got, want *shadow.Shadow, base uint32) error {
	tainted := want.MustTaintedAt(base, mem.PageSize)
	if got.MustTaintedAt(base, mem.PageSize) != tainted {
		return fmt.Errorf("tainted %v, run writes %v", !tainted, tainted)
	}
	if !tainted {
		return nil
	}
	for a := base; a < base+mem.PageSize; a++ {
		if g, w := got.Get(a), want.Get(a); g != w {
			return fmt.Errorf("tag at %#x %v, run writes %v", a, g, w)
		}
	}
	for a := base; a < base+mem.PageSize; a += got.DomainSize() {
		d := got.DomainIndex(a)
		if g, w := got.DomainTaintedBytes(d), want.DomainTaintedBytes(d); g != w {
			return fmt.Errorf("domain %d counts %d tainted bytes, run writes %d", d, g, w)
		}
	}
	return nil
}

// TestChurnMatchesRunWrites: churn clears and re-taints runs during the
// stream, on pattern pages and on the pages aliased onto them alike, and
// each such write copies its page first. So mysql at 30% churn streams the
// same 200k events on its aliased layout as on the layout written run by
// run, its watchers see the same transitions, and it leaves the same
// shadow: every footprint page's tags and domain counts, the tainted-byte
// count and the ever-tainted pages. Half the events are tainted and each
// tainted word is read once, so the taint cursor walks most of the layout,
// pattern pages and aliases, where mysql's 0.19% of tainted events would
// finish a handful of runs.
func TestChurnMatchesRunWrites(t *testing.T) {
	p := MustGet("mysql")
	p.ChurnProb = 0.30
	p.TaintPct, p.ActiveShare, p.TaintReuse = 50, 0.6, 1
	got, want := shadow.MustNew(shadow.DefaultDomainSize), shadow.MustNew(shadow.DefaultDomainSize)
	g, err := NewGeneratorOn(p, got)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewGeneratorOn(p, want)
	if err != nil {
		t.Fatal(err)
	}
	want.Reset()
	writeRuns(ref, want)
	k := g.phaseCycle()
	if got.PagesAllocated() != k || want.PagesAllocated() != p.PagesTainted {
		t.Fatalf("the aliased layout holds %d pages of storage, the written one %d; want %d and %d",
			got.PagesAllocated(), want.PagesAllocated(), k, p.PagesTainted)
	}
	gotW, wantW := newLayoutWatch(got), newLayoutWatch(want)
	var gotEvents, wantEvents []trace.Event
	g.Run(200_000, trace.SinkFunc(func(ev trace.Event) { gotEvents = append(gotEvents, ev) }))
	ref.Run(200_000, trace.SinkFunc(func(ev trace.Event) { wantEvents = append(wantEvents, ev) }))
	if !slices.Equal(gotEvents, wantEvents) {
		t.Fatalf("the aliased layout streamed %d events, the written one %d, and they differ", len(gotEvents), len(wantEvents))
	}
	if i := firstDifference(gotW.log, wantW.log); i >= 0 {
		t.Fatalf("watcher report %d of %d/%d differs", i, len(gotW.log), len(wantW.log))
	}
	// The churn must have cleared taint on both sides of an alias.
	var patterns, aliases int
	for _, r := range gotW.log {
		if pi := int(r.at*got.DomainSize()>>mem.PageShift) - basePage - g.taintStart; !r.byteLevel && !r.tainted {
			if pi < k {
				patterns++
			} else {
				aliases++
			}
		}
	}
	if patterns == 0 || aliases == 0 {
		t.Fatalf("the churn cleared %d domains on pattern pages and %d on aliases; want some of both", patterns, aliases)
	}
	if got.TaintedBytes() != want.TaintedBytes() {
		t.Fatalf("%d tainted bytes, run writes %d", got.TaintedBytes(), want.TaintedBytes())
	}
	if gotPages, wantPages := got.EverTaintedPageNumbers(), want.EverTaintedPageNumbers(); !slices.Equal(gotPages, wantPages) {
		t.Fatalf("%d ever-tainted pages, run writes %d", len(gotPages), len(wantPages))
	}
	for pi := 0; pi < p.PagesAccessed; pi++ {
		if err := samePage(got, want, g.pageAddr(pi)); err != nil {
			t.Fatalf("footprint page %d: %v", pi, err)
		}
	}
}
