package engine

import (
	"fmt"
	"testing"

	"latch/internal/latch"
	"latch/internal/mem"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/trace"
	"latch/internal/workload"
)

// materializeBench is a session with n-1 spare modules on its shadow: the
// modules of a run with n consumers.
type materializeBench struct {
	s      *Session
	spares []*latch.Module
}

func newMaterializeBench(tb testing.TB, n int) *materializeBench {
	tb.Helper()
	cfg := latch.DefaultConfig()
	s, err := NewSession(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	mb := &materializeBench{s: s}
	for range n - 1 {
		mb.spares = append(mb.spares, latch.MustNew(cfg, s.Shadow))
	}
	return mb
}

// materialize materializes p and loads it into every module.
func (mb *materializeBench) materialize(tb testing.TB, p workload.Profile, spl policy.Sampling) {
	if _, err := mb.s.materialize(p, spl, mb.spares...); err != nil {
		tb.Fatal(err)
	}
}

// reset empties every module, then the shadow, as a recycled run does.
func (mb *materializeBench) reset() {
	for _, m := range mb.spares {
		m.Reset()
	}
	mb.s.Module.Reset()
	mb.s.Shadow.Reset()
}

// TestMaterializeAllocatesNothing: on a warmed session, materializing a
// layout and loading it into six modules allocates nothing beyond what
// constructing the generator allocates on a shadow no module watches (its
// struct, which holds the RNG state, and its epoch counters). The
// recorder's buffer and the load's scratch are kept across runs, and no
// watcher is bound per run.
func TestMaterializeAllocatesNothing(t *testing.T) {
	p := profile(t, "sphinx3")
	for _, spl := range []policy.Sampling{{}, {SampleFraction: 0.25, SampleSeed: 3}} {
		mb := newMaterializeBench(t, 6)
		mb.materialize(t, p, spl)
		mb.reset()
		got := testing.AllocsPerRun(5, func() {
			mb.materialize(t, p, spl)
			mb.reset()
		})

		bare := shadow.MustNew(shadow.DefaultDomainSize)
		gen := func() {
			if _, err := workload.NewSampledGeneratorOn(p, bare, spl); err != nil {
				t.Fatal(err)
			}
			bare.Reset()
		}
		gen()
		if base := testing.AllocsPerRun(5, gen); got != base {
			t.Errorf("sampling %+v: materialize and load allocate %.0f times per run, the generator alone %.0f", spl, got, base)
		}
	}
}

// TestMaterializeMatchesWatchers: every module a run materializes into holds
// what the session's module holds when its own watchers see the layout
// written, checked through the same checks: first one per CTT word of the
// layout's last tainted pages, last word first, which hit the CTC only where
// it was warmed, then those of one stream. The stream is astar's without its
// churn and near-taint accesses, so it never reads or writes the shadow and
// serves both.
func TestMaterializeMatchesWatchers(t *testing.T) {
	p := profile(t, "astar")
	p.ChurnProb, p.CleanNearTaint, p.BurstNearTaint = 0, 0, 0
	cfg := latch.DefaultConfig()
	cfg.CTCEntries = 4
	watched, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGeneratorOn(p, watched.Shadow)
	if err != nil {
		t.Fatal(err)
	}
	mb := newMaterializeBench(t, 3)
	for _, m := range append([]*latch.Module{mb.s.Module}, mb.spares...) {
		if err := m.Reconfigure(cfg); err != nil {
			t.Fatal(err)
		}
	}
	mb.materialize(t, p, policy.Sampling{})
	check := func(addr uint32, size int) {
		want := watched.Module.CheckMem(addr, size)
		for i, m := range append([]*latch.Module{mb.s.Module}, mb.spares...) {
			if got := m.CheckMem(addr, size); got != want {
				t.Fatalf("module %d: CheckMem(%#x) = %+v, watched %+v", i, addr, got, want)
			}
		}
	}
	pages := watched.Shadow.EverTaintedPageNumbers()
	for k := len(pages) - 1; k >= len(pages)-4; k-- {
		pn := pages[k]
		for off := mem.PageSize - cfg.WordCoverage(); ; off -= cfg.WordCoverage() {
			check(pn<<mem.PageShift+off, 1)
			if off == 0 {
				break
			}
		}
	}
	g.Run(20000, trace.SinkFunc(func(ev trace.Event) {
		if ev.IsMem {
			check(ev.Addr, int(ev.Size))
		}
	}))
	for i, m := range append([]*latch.Module{mb.s.Module}, mb.spares...) {
		if got, want := m.Stats(), watched.Module.Stats(); got.CTCCheckMisses != want.CTCCheckMisses || got.TLBMisses != want.TLBMisses {
			t.Fatalf("module %d: %d CTC and %d TLB misses, watched %d and %d", i,
				got.CTCCheckMisses, got.TLBMisses, want.CTCCheckMisses, want.TLBMisses)
		}
	}
}

// BenchmarkMaterialize times materializing a layout at 64-byte domains and
// loading it, alone and into the six modules of a six-consumer sweep:
// sphinx3's 4,133 tainted pages of 16-byte runs every 64 bytes, astar's
// 2,001 of 8-byte runs every 128, mysql's 435 of 64-byte runs every 256,
// and bzip2's 70 whole tainted pages. The reset cases time what a profile
// run pays before its stream: emptying the module and the shadow of the
// last run's layout, then materializing its own.
func BenchmarkMaterialize(b *testing.B) {
	for _, name := range []string{"sphinx3", "astar", "mysql", "bzip2"} {
		p := workload.MustGet(name)
		for _, n := range []int{1, 6} {
			b.Run(fmt.Sprintf("%s/consumers=%d", name, n), func(b *testing.B) {
				mb := newMaterializeBench(b, n)
				mb.materialize(b, p, policy.Sampling{})
				mb.reset()
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					mb.materialize(b, p, policy.Sampling{})
					b.StopTimer()
					mb.reset()
					b.StartTimer()
				}
			})
		}
		b.Run(name+"/reset/consumers=1", func(b *testing.B) {
			mb := newMaterializeBench(b, 1)
			mb.materialize(b, p, policy.Sampling{})
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				mb.reset()
				mb.materialize(b, p, policy.Sampling{})
			}
		})
	}
}
