package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"testing"

	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/trace"
)

// taintedRuns returns, per global taint run, whether any of its bytes is
// tainted in the generator's shadow.
func taintedRuns(g *Generator) []bool {
	total := g.totalTaintBytes()
	runs := (total + g.p.RunLen - 1) / g.p.RunLen
	out := make([]bool, runs)
	for i := 0; i < total; i++ {
		if g.sh.RangeTainted(g.taintAddr(i), 1) {
			out[i/g.p.RunLen] = true
		}
	}
	return out
}

// Same seed, same fraction: identical materialized taint set. Lower
// fraction: a subset of the higher fraction's set (nested thresholds).
// Fraction 1.0: byte-identical to the unsampled generator.
func TestSampledLayoutDeterministicAndNested(t *testing.T) {
	p := MustGet("gcc")
	build := func(f float64) *Generator {
		g, err := NewSampledGenerator(p, shadow.DefaultDomainSize, policy.Sampling{SampleFraction: f, SampleSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g25a, g25b := build(0.25), build(0.25)
	a, b := taintedRuns(g25a), taintedRuns(g25b)
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("run %d differs between identically-seeded generators", r)
		}
	}
	g50, g100 := build(0.5), build(1.0)
	s50, s100 := taintedRuns(g50), taintedRuns(g100)
	sampledIn := 0
	for r := range a {
		if a[r] && !s50[r] {
			t.Fatalf("run %d tainted at 0.25 but not at 0.5", r)
		}
		if s50[r] && !s100[r] {
			t.Fatalf("run %d tainted at 0.5 but not at 1.0", r)
		}
		if a[r] {
			sampledIn++
		}
	}
	if sampledIn == 0 || sampledIn == len(a) {
		t.Fatalf("fraction 0.25 sampled %d/%d runs", sampledIn, len(a))
	}
	// Fraction 1.0 is an exact no-op against the unsampled path.
	plain, err := NewGenerator(p, shadow.DefaultDomainSize)
	if err != nil {
		t.Fatal(err)
	}
	if g100.sh.TaintedBytes() != plain.sh.TaintedBytes() {
		t.Fatalf("fraction 1.0 tainted %d bytes, unsampled %d",
			g100.sh.TaintedBytes(), plain.sh.TaintedBytes())
	}
	sp, sf := taintedRuns(plain), taintedRuns(g100)
	for r := range sp {
		if sp[r] != sf[r] {
			t.Fatalf("run %d differs between fraction 1.0 and unsampled", r)
		}
	}
}

type evSink struct{ evs []trace.Event }

func (s *evSink) Consume(ev trace.Event) { s.evs = append(s.evs, ev) }

// For a profile whose stream never reads the shadow after materialization
// (ReadsShadow false: no near-taint probing, no churn), the event stream is
// address-identical at every fraction — only the Tainted flags change, and
// only from tainted to clean. This is what makes the frontier experiment's
// overhead comparison apples-to-apples, and what lets engine.Record
// generate one stream for every fraction. Every registered profile that
// does not read the shadow is checked.
func TestSampledStreamAddressesInvariant(t *testing.T) {
	const events = 200_000
	checked, flipped := 0, 0
	for _, name := range Names() {
		p := MustGet(name)
		if p.ReadsShadow() {
			continue
		}
		checked++
		run := func(f float64) []trace.Event {
			g, err := NewSampledGenerator(p, shadow.DefaultDomainSize, policy.Sampling{SampleFraction: f, SampleSeed: 3})
			if err != nil {
				t.Fatal(err)
			}
			s := &evSink{}
			g.Run(events, s)
			return s.evs
		}
		full, tenth := run(1.0), run(0.1)
		if len(full) != len(tenth) {
			t.Fatalf("%s: stream lengths differ: %d vs %d", name, len(full), len(tenth))
		}
		for i := range full {
			a, b := full[i], tenth[i]
			if a.Tainted != b.Tainted {
				if b.Tainted {
					t.Fatalf("%s: event %d tainted at 0.1 but not at 1.0", name, i)
				}
				flipped++
				b.Tainted = a.Tainted
			}
			if a != b {
				t.Fatalf("%s: event %d differs beyond Tainted: %+v vs %+v", name, i, full[i], tenth[i])
			}
		}
	}
	if checked < 5 {
		t.Fatalf("only %d registered profiles leave the shadow alone; the frontier needs 5", checked)
	}
	if flipped == 0 {
		t.Fatal("fraction 0.1 flipped no events to clean")
	}
}

// Sampled-out runs stay clean through the whole stream — churn clears,
// deferred re-taints, and cursor-wrap restores included.
func TestSampledOutRunsStayClean(t *testing.T) {
	p := MustGet("gcc") // ChurnProb > 0: exercises clear/re-taint paths
	g, err := NewSampledGenerator(p, shadow.DefaultDomainSize, policy.Sampling{SampleFraction: 0.5, SampleSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(200_000, &evSink{})
	total := g.totalTaintBytes()
	for i := 0; i < total; i++ {
		if !g.runSampled(i/g.p.RunLen) && g.sh.RangeTainted(g.taintAddr(i), 1) {
			t.Fatalf("sampled-out run %d has tainted byte (index %d)", i/g.p.RunLen, i)
		}
	}
}

func TestSampledGeneratorRejectsBadFraction(t *testing.T) {
	if _, err := NewSampledGenerator(MustGet("bzip2"), shadow.DefaultDomainSize, policy.Sampling{SampleFraction: 1.5}); err == nil {
		t.Fatal("fraction 1.5 accepted")
	}
}

// layoutPrint is what one sampled layout leaves behind: a digest of its
// shadow snapshot (every tainted byte's tag, page by page) and one of the
// transitions its watchers reported and the steps the engine's recorder
// merged them into, which is what a module's bulk load takes.
type layoutPrint struct{ shadow, reports [sha256.Size]byte }

// printLayout materializes p's layout under spl and digests it.
func printLayout(t *testing.T, p Profile, spl policy.Sampling) layoutPrint {
	t.Helper()
	sh := shadow.MustNew(shadow.DefaultDomainSize)
	w := newLayoutWatch(sh)
	if _, err := NewSampledGeneratorOn(p, sh, spl); err != nil {
		t.Fatal(err)
	}
	snap := sha256.New()
	if _, err := sh.WriteTo(snap); err != nil {
		t.Fatal(err)
	}
	steps, err := w.rec.Steps()
	if err != nil {
		t.Fatal(err)
	}
	reports := sha256.New()
	if err := binary.Write(reports, binary.LittleEndian, w.log); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(reports, binary.LittleEndian, steps); err != nil {
		t.Fatal(err)
	}
	var lp layoutPrint
	snap.Sum(lp.shadow[:0])
	reports.Sum(lp.reports[:0])
	return lp
}

// TestLayoutKeyIsExact pins LayoutKey's promise, which lets the sampling
// frontier replay each distinct layout once: for the frontier's profiles,
// astar (sub-page runs, 64,032 of them) and a one-page shape of two
// sub-page runs, the last one cut short, at fractions {0, 0.01, 0.1, 0.25,
// 0.5, 1} and seeds 1-8, two specs have equal keys exactly when their
// materialized shadows are byte-identical, and specs with equal keys also
// report the same transitions to the watchers. Fractions 0 and 1 disable
// sampling and key every run in; the short shape has a sampled spec that
// keeps both runs, whose run-by-run write must match the unsampled one.
func TestLayoutKeyIsExact(t *testing.T) {
	var profiles []Profile
	for _, name := range []string{"bzip2", "cactusADM", "gobmk", "lbm", "sjeng", "astar"} {
		profiles = append(profiles, MustGet(name))
	}
	short := MustGet("soplex")
	short.Name, short.RunLen, short.GapLen = "soplex-1500-1100", 1500, 1100
	short.PagesAccessed += 1 - short.PagesTainted
	short.PagesTainted = 1
	profiles = append(profiles, short)

	for _, p := range profiles {
		full, ones := LayoutKey(p, policy.Sampling{}), 0
		for _, b := range []byte(full) {
			ones += bits.OnesCount8(b)
		}
		if len(full) != (taintRuns(p)+7)/8 || ones != taintRuns(p) {
			t.Fatalf("%s: unsampled key sets %d bits of %d bytes, want one bit per run (%d)", p.Name, ones, len(full), taintRuns(p))
		}
		byKey := map[string]layoutPrint{}
		byShadow := map[[sha256.Size]byte]string{}
		sampledFull := false
		for _, f := range []float64{0, 0.01, 0.1, 0.25, 0.5, 1} {
			for seed := uint64(1); seed <= 8; seed++ {
				spl := policy.Sampling{SampleFraction: f, SampleSeed: seed}
				key, lp := LayoutKey(p, spl), printLayout(t, p, spl)
				if !spl.Enabled() && key != full {
					t.Fatalf("%s: disabled spec %+v does not key every run in", p.Name, spl)
				}
				sampledFull = sampledFull || spl.Enabled() && key == full
				if prev, ok := byKey[key]; ok && prev != lp {
					t.Errorf("%s: %+v shares its key with an earlier spec but materializes a different layout (shadow equal: %v)",
						p.Name, spl, prev.shadow == lp.shadow)
				}
				if prev, ok := byShadow[lp.shadow]; ok && prev != key {
					t.Errorf("%s: %+v materializes an earlier spec's shadow under a different key", p.Name, spl)
				}
				byKey[key], byShadow[lp.shadow] = lp, key
			}
		}
		if p.Name == short.Name && !sampledFull {
			t.Errorf("%s: no sampled spec kept every run; the run-by-run write of a full layout went unchecked", p.Name)
		}
	}
}
