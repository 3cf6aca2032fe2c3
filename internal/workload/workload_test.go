package workload

import (
	"math"
	"testing"

	"latch/internal/mem"
	"latch/internal/shadow"
	"latch/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	spec := BySuite(SuiteSPEC)
	net := BySuite(SuiteNetwork)
	if len(spec) != 20 {
		t.Fatalf("SPEC benchmarks = %d, want 20", len(spec))
	}
	if len(net) != 7 {
		t.Fatalf("network benchmarks = %d, want 7", len(net))
	}
	if len(Names()) != 27 {
		t.Fatalf("total = %d", len(Names()))
	}
	// Names() lists SPEC first.
	if Names()[0] != spec[0] || Names()[20] != net[0] {
		t.Fatal("Names ordering wrong")
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nonexistent"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet should panic")
		}
	}()
	MustGet("nonexistent")
}

func TestAllProfilesValidate(t *testing.T) {
	for _, name := range Names() {
		if err := MustGet(name).Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestProfileValidateRejections(t *testing.T) {
	good := MustGet("gcc")
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.TaintPct = 101 },
		func(p *Profile) { p.ActiveShare = 0 },
		func(p *Profile) { p.ActiveShare = 1 },
		func(p *Profile) { p.TaintPct = 50; p.ActiveShare = 0.1 },
		func(p *Profile) { p.Epochs = nil },
		func(p *Profile) { p.Epochs = []EpochClass{{Len: 0, Share: 1}} },
		func(p *Profile) { p.Epochs = []EpochClass{{Len: 100, Share: 0.5}} },
		func(p *Profile) { p.PagesAccessed = 0 },
		func(p *Profile) { p.PagesTainted = p.PagesAccessed + 1 },
		func(p *Profile) { p.RunLen = 0 },
		func(p *Profile) { p.MemFraction = 0 },
		func(p *Profile) { p.HotFraction = 1.5 },
		func(p *Profile) { p.TaintReuse = 0 },
		func(p *Profile) { p.LibdftSlowdown = 0.5 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	collect := func() []trace.Event {
		g := MustNewGenerator(MustGet("gcc"), shadow.DefaultDomainSize)
		var evs []trace.Event
		g.Run(5000, trace.SinkFunc(func(ev trace.Event) { evs = append(evs, ev) }))
		return evs
	}
	a, b := collect(), collect()
	if len(a) != len(b) || len(a) != 5000 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorTaintPercent(t *testing.T) {
	// The stream must reproduce the profile's Table 1/2 taint percentage.
	// The estimate only converges once the run is several times the longest
	// epoch class, so this test uses benchmarks with fragmented epochs;
	// experiments over the full registry run tens of millions of events.
	for _, name := range []string{"astar", "perlbench", "apache", "sphinx3", "soplex"} {
		p := MustGet(name)
		g := MustNewGenerator(p, shadow.DefaultDomainSize)
		a := trace.NewEpochAnalyzer()
		const n = 1_200_000
		g.Run(n, a)
		a.Finish()
		got := a.TaintedPercent()
		// Within 25% relative or 0.05 absolute.
		if math.Abs(got-p.TaintPct) > math.Max(0.25*p.TaintPct, 0.05) {
			t.Errorf("%s: tainted%% = %.3f, want ~%.3f", name, got, p.TaintPct)
		}
	}
}

func TestGeneratorEpochStructure(t *testing.T) {
	// Benchmarks with very long epoch profiles must show most instructions
	// in >=10K epochs; fragmented ones must not.
	g := MustNewGenerator(MustGet("bzip2"), shadow.DefaultDomainSize)
	a := trace.NewEpochAnalyzer()
	g.Run(2_000_000, a)
	a.Finish()
	if share := a.EpochShare(2); share < 0.8 { // >=10K bucket
		t.Errorf("bzip2 >=10K epoch share = %.2f, want > 0.8", share)
	}

	g2 := MustNewGenerator(MustGet("apache"), shadow.DefaultDomainSize)
	a2 := trace.NewEpochAnalyzer()
	g2.Run(2_000_000, a2)
	a2.Finish()
	if share := a2.EpochShare(4); share > 0.05 { // >=1M bucket
		t.Errorf("apache >=1M epoch share = %.2f, want ~0", share)
	}
	if share := a2.EpochShare(0); share < 0.5 { // >=100 bucket still dominant
		t.Errorf("apache >=100 epoch share = %.2f, want > 0.5", share)
	}
}

func TestGeneratorTaintLayout(t *testing.T) {
	p := MustGet("gcc")
	g := MustNewGenerator(p, shadow.DefaultDomainSize)
	sh := g.Shadow()
	if got := sh.EverTaintedPages(); got != p.PagesTainted {
		t.Fatalf("tainted pages = %d, want %d", got, p.PagesTainted)
	}
	// Run/gap structure: within a tainted page, exactly RunLen of every
	// period bytes are tainted.
	wantBytes := uint64(p.PagesTainted) * uint64(mem.PageSize/(p.RunLen+p.GapLen)*p.RunLen)
	if got := sh.TaintedBytes(); got != wantBytes {
		t.Fatalf("tainted bytes = %d, want %d", got, wantBytes)
	}
}

func TestGeneratorFullPageLayout(t *testing.T) {
	p := MustGet("bzip2") // RunLen >= page
	g := MustNewGenerator(p, shadow.DefaultDomainSize)
	sh := g.Shadow()
	if got := sh.TaintedBytes(); got != uint64(p.PagesTainted)*mem.PageSize {
		t.Fatalf("tainted bytes = %d", got)
	}
}

func TestGeneratorAddressesConsistentWithGroundTruth(t *testing.T) {
	// Every event flagged Tainted must reference a truly tainted byte, and
	// every clean memory event must not.
	for _, name := range []string{"astar", "sphinx3", "mcf", "apache", "bzip2"} {
		g := MustNewGenerator(MustGet(name), shadow.DefaultDomainSize)
		sh := g.Shadow()
		bad := 0
		g.Run(200_000, trace.SinkFunc(func(ev trace.Event) {
			if !ev.IsMem {
				if ev.Tainted {
					bad++
				}
				return
			}
			truly := sh.RangeTainted(ev.Addr, int(ev.Size))
			if truly != ev.Tainted {
				bad++
			}
		}))
		if bad != 0 {
			t.Errorf("%s: %d events with inconsistent taint flags", name, bad)
		}
	}
}

func TestGeneratorFootprintBounds(t *testing.T) {
	// All generated addresses stay inside the declared footprint.
	p := MustGet("perlbench")
	g := MustNewGenerator(p, shadow.DefaultDomainSize)
	lo := uint32(basePage) << mem.PageShift
	hi := lo + uint32(p.PagesAccessed)*mem.PageSize
	g.Run(100_000, trace.SinkFunc(func(ev trace.Event) {
		if ev.IsMem && (ev.Addr < lo || ev.Addr >= hi) {
			t.Fatalf("address %#x outside footprint [%#x,%#x)", ev.Addr, lo, hi)
		}
	}))
}

func TestTaintAddrEnumeration(t *testing.T) {
	g := MustNewGenerator(MustGet("soplex"), shadow.DefaultDomainSize) // run 16 gap 48
	sh := g.Shadow()
	// The first tbpp*pages tainted byte indices all map to tainted bytes.
	for i := 0; i < 10_000; i++ {
		addr := g.taintAddr(i * 7)
		if !sh.Get(addr).Tainted() {
			t.Fatalf("taintAddr(%d) = %#x is not tainted", i*7, addr)
		}
	}
	for i := 0; i < 10_000; i++ {
		addr := g.gapAddr(i * 5)
		if sh.Get(addr).Tainted() {
			t.Fatalf("gapAddr(%d) = %#x is tainted", i*5, addr)
		}
	}
}

func TestGeneratorRejectsSmallerRun(t *testing.T) {
	p := MustGet("bzip2")
	p.CleanNearTaint = 0.1 // no gap bytes exist in full-page layout
	if _, err := NewGenerator(p, shadow.DefaultDomainSize); err == nil {
		t.Fatal("near-taint without gap bytes accepted")
	}
}

func TestGeneratorContinuation(t *testing.T) {
	// Two Run calls continue the sequence (Seq strictly increasing).
	g := MustNewGenerator(MustGet("gcc"), shadow.DefaultDomainSize)
	var last uint64
	sink := trace.SinkFunc(func(ev trace.Event) {
		if ev.Seq <= last {
			t.Fatalf("Seq not increasing: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
	})
	g.Run(1000, sink)
	g.Run(1000, sink)
	if last != 2000 {
		t.Fatalf("total events = %d", last)
	}
}

func TestSuiteString(t *testing.T) {
	if SuiteSPEC.String() != "spec2006" || SuiteNetwork.String() != "network" {
		t.Fatal("suite names")
	}
}

// BenchmarkGenerate measures the engine's path: RunBatches into a reused
// 512-event buffer. It must stay at 0 allocs/op.
func BenchmarkGenerate(b *testing.B) {
	g := MustNewGenerator(MustGet("gcc"), shadow.DefaultDomainSize)
	buf := make([]trace.Event, 512)
	var events int
	deliver := func(evs []trace.Event) { events += len(evs) }
	b.ReportAllocs()
	b.ResetTimer()
	g.RunBatches(uint64(b.N), buf, deliver)
	if events != b.N {
		b.Fatalf("delivered %d of %d events", events, b.N)
	}
}
