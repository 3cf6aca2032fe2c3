package latch

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"latch/internal/cache"
	"latch/internal/mem"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/workload"
)

// TestLoadTaintMatchesWatchers is the oracle for the bulk load. Every
// registered profile's layout, unsampled and at 25% sampling, is
// materialized at 8-, 64- and 256-byte domains (where a CTT word spans two
// page domains) twice per module geometry: once with the module's own
// watchers on the shadow, the per-domain path, and once through a Recorder
// and LoadTaint. The CTT words, the page-domain counts, the page taint bits,
// and the CTC's resident lines with their payloads and eviction order must
// match, for CTCs of 1 to 64 entries under every clear policy.
func TestLoadTaintMatchesWatchers(t *testing.T) {
	samplings := []struct {
		name string
		spl  policy.Sampling
	}{
		{"unsampled", policy.Sampling{}},
		{"sampled", policy.Sampling{SampleFraction: 0.25, SampleSeed: 3}},
	}
	rec := NewRecorder()
	osh, bsh := shadow.MustNew(shadow.DefaultDomainSize), shadow.MustNew(shadow.DefaultDomainSize)
	var om, bm *Module // the watched module and the loaded one, reused
	ready := func(m **Module, sh *shadow.Shadow, cfg Config) {
		t.Helper()
		if *m == nil {
			*m = MustNew(cfg, sh)
		} else if err := (*m).Reconfigure(cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range workload.Names() {
		p := workload.MustGet(name)
		for _, ds := range []uint32{8, 64, 256} {
			for _, smp := range samplings {
				bsh.Reset()
				if err := bsh.Regranulate(ds); err != nil {
					t.Fatal(err)
				}
				rec.Reset()
				bsh.OnDomainTransition(rec.Watcher())
				bsh.OnByteTransition(nil)
				if _, err := workload.NewSampledGeneratorOn(p, bsh, smp.spl); err != nil {
					t.Fatal(err)
				}
				steps, err := rec.Steps()
				if err != nil {
					t.Fatal(err)
				}
				for _, entries := range []int{1, 2, 16, 64} {
					for _, clear := range []ClearPolicy{EagerClear, LazyClear, NoClear} {
						cfg := DefaultConfig()
						cfg.DomainSize, cfg.CTCEntries, cfg.Clear = ds, entries, clear
						where := fmt.Sprintf("%s/%dB/%s/ctc%d/%s", name, ds, smp.name, entries, clear)

						osh.Reset()
						if err := osh.Regranulate(ds); err != nil {
							t.Fatal(err)
						}
						ready(&om, osh, cfg)
						if _, err := workload.NewSampledGeneratorOn(p, osh, smp.spl); err != nil {
							t.Fatal(err)
						}
						ready(&bm, bsh, cfg)
						if err := bm.LoadTaint(steps); err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						compareLoaded(t, where, om, bm, osh)
						om.Reset()
						bm.Reset()
					}
				}
			}
		}
	}
}

// compareLoaded fails unless the loaded module bm holds the coarse state of
// the watched module om, whose shadow is sh: the same tables, equal over
// every page the layout tainted, with the same occupancy. It empties both
// CTCs.
func compareLoaded(t *testing.T, where string, om, bm *Module, sh *shadow.Shadow) {
	t.Helper()
	if om.ctt.nonzero != bm.ctt.nonzero || om.ctt.setBits != bm.ctt.setBits ||
		len(om.ctt.words) != len(bm.ctt.words) || len(om.pdCount) != len(bm.pdCount) {
		t.Fatalf("%s: CTT holds %d domains in %d words, watched %d in %d (or the tables differ in size)",
			where, bm.ctt.setBits, bm.ctt.nonzero, om.ctt.setBits, om.ctt.nonzero)
	}
	sh.ForEachEverTaintedPage(func(pn uint32) {
		first, last := pn<<mem.PageShift, pn<<mem.PageShift+mem.PageSize-1
		for w := WordIndex(sh.DomainIndex(first)); w <= WordIndex(sh.DomainIndex(last)); w++ {
			if a, b := bm.ctt.Word(w), om.ctt.Word(w); a != b {
				t.Fatalf("%s: CTT word %#x = %#x, watched %#x", where, w, a, b)
			}
		}
		for pd := om.pdIndex(first); pd <= om.pdIndex(last); pd++ {
			if a, b := bm.pdCount[pd], om.pdCount[pd]; a != b {
				t.Fatalf("%s: page domain %#x counts %d, watched %d", where, pd, a, b)
			}
		}
		if a, b := bm.PageTaintBits(pn), om.PageTaintBits(pn); a != b {
			t.Fatalf("%s: page %#x taint bits %#x, watched %#x", where, pn, a, b)
		}
	})
	if a, b := bm.tlb.Resident(), om.tlb.Resident(); a != b {
		t.Fatalf("%s: %d resident TLB entries, watched %d", where, a, b)
	}
	if a, b := evictAll(bm), evictAll(om); !slices.Equal(a, b) {
		t.Fatalf("%s: CTC lines in eviction order\n loaded  %+v\n watched %+v", where, a, b)
	}
}

// evictAll fills the CTC with as many words outside every layout as it has
// entries, and returns the lines that displaces, in eviction order: every
// line resident before, least recently used first.
func evictAll(m *Module) []cache.Eviction {
	var out []cache.Eviction
	for i := 0; i < m.cfg.CTCEntries; i++ {
		if _, hit, ev := m.ctc.Access(0xF0000000 + uint32(i)*m.cfg.WordCoverage()); !hit && ev.Valid {
			out = append(out, ev)
		}
	}
	return out
}

// TestLoadTaintSplitsPageDomains loads words whose domains fall in one page
// domain (64-byte domains) and words that span two (256-byte domains) or
// thirty-two (4 KiB domains), with a word beyond the pre-sized tables, and
// checks the CTT and page-domain counts against the domain watcher's.
func TestLoadTaintSplitsPageDomains(t *testing.T) {
	for _, ds := range []uint32{64, 256, mem.PageSize} {
		cfg := DefaultConfig()
		cfg.DomainSize, cfg.AddressSpan = ds, 1<<20
		sh := shadow.MustNew(ds)
		loaded, watched := MustNew(cfg, sh), MustNew(cfg, sh)
		far := WordIndex(sh.DomainIndex(1 << 30))
		steps := []TaintStep{{Word: 1, Mask: 0x8000_0001}, {Word: far, Mask: 0xFFFF_FFFF}, {Word: 1, Mask: 0x0001_0000}}
		if err := loaded.LoadTaint(steps); err != nil {
			t.Fatal(err)
		}
		for _, st := range steps {
			for b := st.Mask; b != 0; b &= b - 1 {
				watched.onDomainTransition(st.Word*CTTWordBits+uint32(bits.TrailingZeros32(b)), true)
			}
		}
		if got := loaded.CTT().TaintedDomains(); got != 35 {
			t.Fatalf("%dB: %d tainted domains, want 35", ds, got)
		}
		if !loaded.TablesGrown() {
			t.Fatalf("%dB: a word at 1 GiB did not grow the tables", ds)
		}
		if !slices.Equal(loaded.ctt.words, watched.ctt.words) || !slices.Equal(loaded.pdCount, watched.pdCount) {
			t.Fatalf("%dB: the loaded CTT or page-domain counts differ from the watcher's", ds)
		}
	}
}

// TestLoadTaintRejects covers the refusals: a module holding coarse taint,
// or with a resident CTC or TLB line, and a record holding a clear.
func TestLoadTaintRejects(t *testing.T) {
	m, sh := newModule(t, nil)
	sh.Set(0x1000, shadow.MustLabel(0))
	if err := m.LoadTaint(nil); err == nil {
		t.Fatal("loaded into a module holding coarse taint")
	}
	m.Reset()
	sh.Reset()
	m.CheckMem(0x1000, 4) // fills a TLB entry
	if err := m.LoadTaint(nil); err == nil {
		t.Fatal("loaded into a module with a resident TLB entry")
	}
	m.Reset()
	m.ctcWrite(0x1000)
	if err := m.LoadTaint(nil); err == nil {
		t.Fatal("loaded into a module with a resident CTC line")
	}
	m.Reset()
	if err := m.LoadTaint(nil); err != nil {
		t.Fatalf("an empty load into a reset module: %v", err)
	}

	rec := NewRecorder()
	sh.OnDomainTransition(rec.Watcher())
	sh.OnByteTransition(nil)
	sh.SetRange(0x2000, 200, shadow.MustLabel(0))
	if steps, err := rec.Steps(); err != nil || len(steps) != 1 || steps[0] != (TaintStep{Word: 4, Mask: 0xF}) {
		t.Fatalf("recorded %+v, %v; want one step of word 4, mask 0xf", steps, err)
	}
	sh.SetRange(0x2000, 200, shadow.TagClean)
	if _, err := rec.Steps(); !errors.Is(err, ErrRecordedClear) {
		t.Fatalf("a recorded clear reads %v, want ErrRecordedClear", err)
	}
	rec.Reset()
	if steps, err := rec.Steps(); err != nil || len(steps) != 0 {
		t.Fatalf("a reset recorder holds %+v, %v", steps, err)
	}
}

// TestRecorderTakesAliasedPages: a recorder that is the shadow's page
// watcher too, taking each aliased page in one call, records the steps it
// records from the domain watcher alone, for every registered profile's
// layout, unsampled and at 25% sampling, at every domain size from 8 bytes,
// where a page holds 16 CTT words, to a page, where a CTT word covers 32
// pages.
func TestRecorderTakesAliasedPages(t *testing.T) {
	perDomain, perPage := NewRecorder(), NewRecorder()
	dsh, psh := shadow.MustNew(shadow.DefaultDomainSize), shadow.MustNew(shadow.DefaultDomainSize)
	pages := 0 // page-watcher calls
	pageWatch := perPage.PageWatcher()
	for _, name := range workload.Names() {
		p := workload.MustGet(name)
		for ds := uint32(shadow.MinDomainSize); ds <= shadow.MaxDomainSize; ds *= 2 {
			for _, spl := range []policy.Sampling{{}, {SampleFraction: 0.25, SampleSeed: 3}} {
				for _, sh := range []*shadow.Shadow{dsh, psh} {
					sh.Reset()
					if err := sh.Regranulate(ds); err != nil {
						t.Fatal(err)
					}
				}
				perDomain.Reset()
				perPage.Reset()
				dsh.OnDomainTransition(perDomain.Watcher())
				psh.OnDomainTransition(perPage.Watcher())
				psh.OnPageAlias(func(first, n, start uint32, tainted []uint64) {
					pages++
					pageWatch(first, n, start, tainted)
				})
				if _, err := workload.NewSampledGeneratorOn(p, dsh, spl); err != nil {
					t.Fatal(err)
				}
				if _, err := workload.NewSampledGeneratorOn(p, psh, spl); err != nil {
					t.Fatal(err)
				}
				want, err1 := perDomain.Steps()
				got, err2 := perPage.Steps()
				if err1 != nil || err2 != nil || !slices.Equal(got, want) {
					t.Fatalf("%s at %d B, sampling %+v: recorded %d steps (%v) with the page watcher, %d (%v) without",
						name, ds, spl, len(got), err2, len(want), err1)
				}
			}
		}
	}
	if pages == 0 {
		t.Fatal("no layout aliased a page")
	}
}
