package workload

import (
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
