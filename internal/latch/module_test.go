package latch

import (
	"testing"
	"testing/quick"

	"latch/internal/mem"
	"latch/internal/shadow"
)

func newModule(t *testing.T, mutate func(*Config)) (*Module, *shadow.Shadow) {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	sh := shadow.MustNew(cfg.DomainSize)
	m, err := New(cfg, sh)
	if err != nil {
		t.Fatal(err)
	}
	return m, sh
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.DomainSize = 48
	if bad.Validate() == nil {
		t.Error("domain 48 accepted")
	}
	bad = DefaultConfig()
	bad.CTCEntries = 0
	if bad.Validate() == nil {
		t.Error("0 CTC entries accepted")
	}
	bad = DefaultConfig()
	bad.TLBEntries = 0
	if bad.Validate() == nil {
		t.Error("0 TLB entries accepted")
	}
	bad.TLBEntries = 48
	if bad.Validate() == nil {
		t.Error("non-power-of-two TLB entries accepted")
	}
	bad = DefaultConfig()
	bad.TCache.Ways = 0
	if bad.Validate() == nil {
		t.Error("bad t-cache accepted")
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.WordCoverage() != 2048 {
		t.Fatalf("WordCoverage = %d", cfg.WordCoverage())
	}
	if cfg.PageDomains() != 2 || cfg.PageDomainSize() != 2048 {
		t.Fatalf("page domains: %d x %d", cfg.PageDomains(), cfg.PageDomainSize())
	}
	if cfg.CTCPayloadBytes() != 64 {
		t.Fatalf("CTCPayloadBytes = %d", cfg.CTCPayloadBytes())
	}
	// 256-byte domains: a word covers 8 KiB > page, so one bit per page.
	cfg.DomainSize = 256
	if cfg.PageDomains() != 1 || cfg.PageDomainSize() != mem.PageSize {
		t.Fatalf("256B page domains: %d x %d", cfg.PageDomains(), cfg.PageDomainSize())
	}
}

func TestNewRejectsMismatchedShadow(t *testing.T) {
	sh := shadow.MustNew(128)
	if _, err := New(DefaultConfig(), sh); err == nil {
		t.Fatal("mismatched shadow accepted")
	}
}

func TestCleanCheckResolvesAtTLB(t *testing.T) {
	m, _ := newModule(t, nil)
	res := m.CheckMem(0x1000, 4)
	if res.Level != ResolvedTLB || res.CoarsePositive || res.TrulyTainted || res.FalsePositive {
		t.Fatalf("res = %+v", res)
	}
	st := m.Stats()
	if st.Checks != 1 || st.ResolvedTLB != 1 || st.CTCCheckAccesses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTaintedCheckResolvesPrecise(t *testing.T) {
	m, sh := newModule(t, nil)
	sh.Set(0x1000, shadow.MustLabel(0))
	res := m.CheckMem(0x1000, 4)
	if res.Level != ResolvedPrecise || !res.CoarsePositive || !res.TrulyTainted || res.FalsePositive {
		t.Fatalf("res = %+v", res)
	}
	st := m.Stats()
	if st.TruePositives != 1 || st.TCacheAccesses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFalsePositiveWithinTaintedDomain(t *testing.T) {
	m, sh := newModule(t, nil)
	sh.Set(0x1000, shadow.MustLabel(0)) // domain [0x1000, 0x1040)
	// Same domain, different (clean) byte: coarse positive, precise clean.
	res := m.CheckMem(0x1020, 4)
	if !res.CoarsePositive || res.TrulyTainted || !res.FalsePositive {
		t.Fatalf("res = %+v", res)
	}
	if m.Stats().FalsePositives != 1 {
		t.Fatal("false positive not counted")
	}
}

func TestNeighborDomainResolvesAtCTC(t *testing.T) {
	m, sh := newModule(t, nil)
	sh.Set(0x1000, shadow.MustLabel(0))
	// Different domain, same page-level domain (2 KiB): TLB bit is set, so
	// the check falls through to the CTC, which says clean.
	res := m.CheckMem(0x1100, 4)
	if res.Level != ResolvedCTC || res.CoarsePositive {
		t.Fatalf("res = %+v", res)
	}
	if m.Stats().ResolvedCTC != 1 {
		t.Fatal("CTC resolution not counted")
	}
}

func TestOtherPageDomainResolvesAtTLB(t *testing.T) {
	m, sh := newModule(t, nil)
	sh.Set(0x1000, shadow.MustLabel(0)) // page 1, page-domain 0
	res := m.CheckMem(0x1800, 4)        // page 1, page-domain 1 (2 KiB onwards)
	if res.Level != ResolvedTLB {
		t.Fatalf("res = %+v", res)
	}
}

func TestDomainStraddlingCheck(t *testing.T) {
	m, sh := newModule(t, nil)
	sh.Set(0x1040, shadow.MustLabel(0)) // second domain
	// 4-byte access starting 2 bytes before the boundary.
	res := m.CheckMem(0x103E, 4)
	if !res.CoarsePositive || !res.TrulyTainted {
		t.Fatalf("straddling access missed taint: %+v", res)
	}
}

func TestEagerClearKeepsCTTExact(t *testing.T) {
	m, sh := newModule(t, nil) // default: EagerClear
	sh.Set(0x1000, shadow.MustLabel(0))
	d := sh.DomainIndex(0x1000)
	if !m.CTT().Bit(d) {
		t.Fatal("CTT bit not set")
	}
	sh.Set(0x1000, shadow.TagClean)
	if m.CTT().Bit(d) {
		t.Fatal("eager clear left CTT bit")
	}
	// Subsequent check resolves at TLB again.
	if res := m.CheckMem(0x1000, 1); res.Level != ResolvedTLB {
		t.Fatalf("level = %v", res.Level)
	}
}

func TestLazyClearNeedsScan(t *testing.T) {
	m, sh := newModule(t, func(c *Config) { c.Clear = LazyClear })
	sh.Set(0x1000, shadow.MustLabel(0))
	sh.Set(0x1000, shadow.TagClean)
	d := sh.DomainIndex(0x1000)
	if !m.CTT().Bit(d) {
		t.Fatal("lazy clear dropped CTT bit immediately")
	}
	// The stale bit produces a false positive...
	res := m.CheckMem(0x1000, 1)
	if !res.FalsePositive {
		t.Fatalf("expected stale false positive, got %+v", res)
	}
	// ...until the resident scan runs.
	scanned := m.ScanResidentClears()
	if scanned == 0 {
		t.Fatal("scan found nothing")
	}
	if m.CTT().Bit(d) {
		t.Fatal("scan did not clear CTT bit")
	}
	if res := m.CheckMem(0x1000, 1); res.CoarsePositive {
		t.Fatalf("after scan: %+v", res)
	}
	st := m.Stats()
	if st.ScanClearedDomains != 1 || st.ClearScans == 0 {
		t.Fatalf("scan stats = %+v", st)
	}
}

func TestLazyClearRetaintRetiresClearBit(t *testing.T) {
	m, sh := newModule(t, func(c *Config) { c.Clear = LazyClear })
	sh.Set(0x1000, shadow.MustLabel(0))
	sh.Set(0x1000, shadow.TagClean)
	sh.Set(0x1001, shadow.MustLabel(0)) // re-taint the same domain
	m.ScanResidentClears()
	d := sh.DomainIndex(0x1000)
	if !m.CTT().Bit(d) {
		t.Fatal("scan cleared a re-tainted domain")
	}
}

func TestLazyClearPartialDomainSurvivesScan(t *testing.T) {
	m, sh := newModule(t, func(c *Config) { c.Clear = LazyClear })
	sh.Set(0x1000, shadow.MustLabel(0))
	sh.Set(0x1001, shadow.MustLabel(0))
	sh.Set(0x1000, shadow.TagClean) // domain still holds taint at 0x1001
	m.ScanResidentClears()
	if !m.CTT().Bit(sh.DomainIndex(0x1000)) {
		t.Fatal("scan cleared a domain that still holds taint")
	}
}

func TestEvictionTriggersScan(t *testing.T) {
	// CTC has 16 entries; taint-and-clear one domain, then touch 16 other
	// CTT words to force eviction of the clear-bit line.
	m, sh := newModule(t, func(c *Config) { c.Clear = LazyClear })
	sh.Set(0, shadow.MustLabel(0))
	sh.Set(0, shadow.TagClean) // clear bit pending in CTC line for word 0
	cover := m.Config().WordCoverage()
	for i := uint32(1); i <= 16; i++ {
		sh.Set(i*cover, shadow.MustLabel(0)) // allocate other CTC lines
	}
	if m.CTT().Bit(0) {
		t.Fatal("eviction scan did not clear domain 0")
	}
	if m.Stats().ClearScans == 0 {
		t.Fatal("no scan recorded")
	}
}

func TestEvictionScanPartialWord(t *testing.T) {
	// An evicted CTC line whose word mixes clean and still-tainted domains:
	// the §5.1.4 scan must clear exactly the fully-clean domains and leave
	// the page-level taint bit up while any domain in the page domain holds
	// taint.
	m, sh := newModule(t, func(c *Config) { c.Clear = LazyClear })
	cover := m.Config().WordCoverage()
	sh.Set(0, shadow.MustLabel(0))  // domain 0 of word 0
	sh.Set(64, shadow.MustLabel(0)) // domain 1 of word 0
	sh.Set(0, shadow.TagClean)      // clear bit pending for domain 0 only
	for i := uint32(1); i <= 16; i++ {
		sh.Set(i*cover, shadow.MustLabel(0)) // force word 0's line out
	}
	if m.CTT().Bit(0) {
		t.Fatal("eviction scan kept the fully-clean domain")
	}
	if !m.CTT().Bit(1) {
		t.Fatal("eviction scan dropped a domain that still holds taint")
	}
	if m.PageTaintBits(0)&1 == 0 {
		t.Fatal("page-domain bit dropped while domain 1 is tainted")
	}

	// Retire the last tainted domain of the page domain the same way; its
	// eviction scan must now take the page bit down too.
	sh.Set(64, shadow.TagClean)
	for i := uint32(17); i <= 32; i++ {
		sh.Set(i*cover, shadow.MustLabel(0))
	}
	if m.CTT().Bit(1) {
		t.Fatal("second eviction scan kept domain 1")
	}
	if m.PageTaintBits(0)&1 != 0 {
		t.Fatal("page-domain bit survives with no tainted domain")
	}
}

func TestCheckMemStraddlesPageBoundary(t *testing.T) {
	// A multi-byte operand whose last byte lands in the next (tainted) page
	// must be caught through the end-of-operand domain check even though its
	// start address resolves clean at the TLB.
	m, sh := newModule(t, nil)
	page2 := uint32(2 * mem.PageSize)
	sh.Set(page2, shadow.MustLabel(0))
	res := m.CheckMem(page2-2, 4)
	if !res.CoarsePositive || !res.TrulyTainted {
		t.Fatalf("straddling access missed: %+v", res)
	}
	// The mirrored straddle — taint at the end of page 1, operand starting
	// there — resolves from the first byte.
	m2, sh2 := newModule(t, nil)
	sh2.Set(page2-1, shadow.MustLabel(0))
	if res := m2.CheckMem(page2-1, 4); !res.CoarsePositive || !res.TrulyTainted {
		t.Fatalf("leading-byte straddle missed: %+v", res)
	}
	// A fully clean straddle stays negative on both sides.
	if res := m.CheckMem(4*mem.PageSize-2, 4); res.CoarsePositive {
		t.Fatalf("clean straddle flagged: %+v", res)
	}
}

func TestCTCMissCounting(t *testing.T) {
	m, sh := newModule(t, nil)
	// Taint 20 widely-spaced words' worth of memory, forcing the 16-entry
	// CTC to miss on a cyclic check sweep.
	cover := m.Config().WordCoverage()
	for i := uint32(0); i < 20; i++ {
		sh.Set(i*cover, shadow.MustLabel(0))
	}
	m.ResetStats()
	for round := 0; round < 3; round++ {
		for i := uint32(0); i < 20; i++ {
			m.CheckMem(i*cover, 1)
		}
	}
	st := m.Stats()
	if st.CTCCheckMisses == 0 {
		t.Fatal("cyclic sweep produced no CTC misses")
	}
	if st.CTCCheckAccesses != 60 {
		t.Fatalf("CTC accesses = %d, want 60", st.CTCCheckAccesses)
	}
}

func TestBaselineTCacheSeesEverything(t *testing.T) {
	m, _ := newModule(t, nil)
	for i := uint32(0); i < 100; i++ {
		m.CheckMem(i*64, 1)
	}
	st := m.Stats()
	if st.BaselineTCacheAccesses != 100 {
		t.Fatalf("baseline accesses = %d", st.BaselineTCacheAccesses)
	}
	if st.BaselineTCacheMisses == 0 {
		t.Fatal("baseline with 100 distinct lines should miss")
	}
	// Disabled baseline.
	m2, _ := newModule(t, func(c *Config) { c.BaselineTCache = false })
	m2.CheckMem(0, 1)
	if m2.Stats().BaselineTCacheAccesses != 0 {
		t.Fatal("disabled baseline counted accesses")
	}
}

func TestStoreTaintWriteThrough(t *testing.T) {
	m, sh := newModule(t, func(c *Config) { c.Clear = LazyClear })
	if old := m.StoreTaint(0x2000, shadow.MustLabel(1)); old != shadow.TagClean {
		t.Fatalf("old = %v", old)
	}
	if !sh.Get(0x2000).Tainted() {
		t.Fatal("StoreTaint did not reach shadow")
	}
	if m.Stats().CTCWriteAccesses == 0 {
		t.Fatal("no CTC write access recorded")
	}
	// Non-transition write still counts a CTC write.
	before := m.Stats().CTCWriteAccesses
	m.StoreTaint(0x2001, shadow.MustLabel(1)) // domain already tainted: transition fires? no: domain stays tainted but byte transitions clean->tainted... shadow fires domain watcher only on domain transitions.
	if m.Stats().CTCWriteAccesses <= before {
		t.Fatal("second StoreTaint did not touch CTC")
	}
}

func TestStatsPercentages(t *testing.T) {
	s := Stats{
		Checks:                 1000,
		CTCCheckMisses:         5,
		TCacheMisses:           10,
		BaselineTCacheAccesses: 1000,
		BaselineTCacheMisses:   100,
		ResolvedTLB:            900,
		ResolvedCTC:            80,
		ResolvedPrecise:        20,
	}
	if s.CTCMissPercent() != 0.5 || s.TCacheMissPercent() != 1.0 || s.CombinedMissPercent() != 1.5 {
		t.Fatalf("miss percents: %v %v %v", s.CTCMissPercent(), s.TCacheMissPercent(), s.CombinedMissPercent())
	}
	if s.BaselineMissPercent() != 10 {
		t.Fatalf("baseline = %v", s.BaselineMissPercent())
	}
	if s.MissesAvoidedPercent() != 85 {
		t.Fatalf("avoided = %v", s.MissesAvoidedPercent())
	}
	tlb, ctc, prec := s.ShareResolved()
	if tlb != 0.9 || ctc != 0.08 || prec != 0.02 {
		t.Fatalf("shares: %v %v %v", tlb, ctc, prec)
	}
	var zero Stats
	if zero.CTCMissPercent() != 0 || zero.BaselineMissPercent() != 0 || zero.MissesAvoidedPercent() != 0 {
		t.Fatal("zero stats should yield zeros")
	}
	a, b, c := zero.ShareResolved()
	if a != 0 || b != 0 || c != 0 {
		t.Fatal("zero shares")
	}
}

func TestTRF(t *testing.T) {
	var trf TRF
	if trf.AnyTainted() {
		t.Fatal("fresh TRF tainted")
	}
	trf.Set(3, shadow.MustLabel(0))
	if !trf.Tainted(3) || trf.Tainted(2) || !trf.AnyTainted() {
		t.Fatal("Set/Tainted wrong")
	}
	if trf.Mask() != 1<<3 {
		t.Fatalf("Mask = %#x", trf.Mask())
	}
	trf.SetMask(0b101, shadow.MustLabel(1))
	if !trf.Tainted(0) || trf.Tainted(1) || !trf.Tainted(2) || trf.Tainted(3) {
		t.Fatal("SetMask wrong")
	}
	if trf.Get(0) != shadow.MustLabel(1) {
		t.Fatal("Get wrong")
	}
	trf.Reset()
	if trf.AnyTainted() {
		t.Fatal("Reset incomplete")
	}
}

func TestResetStats(t *testing.T) {
	m, sh := newModule(t, nil)
	sh.Set(0, shadow.MustLabel(0))
	m.CheckMem(0, 4)
	m.ResetStats()
	if m.Stats() != (Stats{}) {
		t.Fatal("stats not zeroed")
	}
	if m.TLBStats().Accesses != 0 {
		t.Fatal("TLB stats not zeroed")
	}
}

func TestClearPolicyString(t *testing.T) {
	if EagerClear.String() != "eager" || LazyClear.String() != "lazy" {
		t.Fatal("policy names")
	}
	if ResolvedTLB.String() != "tlb" || ResolvedCTC.String() != "ctc" || ResolvedPrecise.String() != "t-cache" {
		t.Fatal("level names")
	}
}

// Property: soundness — CheckMem never reports a coarse negative for data
// that is truly tainted (no false negatives, the paper's core accuracy
// claim), under either clear policy and arbitrary taint/clear/check
// sequences.
func TestNoFalseNegativesProperty(t *testing.T) {
	type op struct {
		Addr  uint16
		Taint bool
	}
	run := func(policy ClearPolicy, ops []op, probes []uint16) bool {
		cfg := DefaultConfig()
		cfg.Clear = policy
		sh := shadow.MustNew(cfg.DomainSize)
		m := MustNew(cfg, sh)
		for _, o := range ops {
			if o.Taint {
				sh.Set(uint32(o.Addr), shadow.MustLabel(0))
			} else {
				sh.Set(uint32(o.Addr), shadow.TagClean)
			}
		}
		for _, p := range probes {
			res := m.CheckMem(uint32(p), 4)
			truly := sh.RangeTainted(uint32(p), 4)
			if truly && !res.CoarsePositive {
				return false // false negative: unacceptable
			}
			if res.Level == ResolvedPrecise && res.TrulyTainted != truly {
				return false
			}
		}
		return true
	}
	f := func(ops []op, probes []uint16) bool {
		return run(EagerClear, ops, probes) && run(LazyClear, ops, probes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: with EagerClear the coarse state is exact at domain granularity:
// coarse positive iff the domain (or straddled pair) truly contains taint.
func TestEagerExactAtDomainGranularity(t *testing.T) {
	type op struct {
		Addr  uint16
		Taint bool
	}
	f := func(ops []op, probes []uint16) bool {
		cfg := DefaultConfig()
		sh := shadow.MustNew(cfg.DomainSize)
		m := MustNew(cfg, sh)
		for _, o := range ops {
			if o.Taint {
				sh.Set(uint32(o.Addr), shadow.MustLabel(0))
			} else {
				sh.Set(uint32(o.Addr), shadow.TagClean)
			}
		}
		for _, p := range probes {
			addr := uint32(p)
			res := m.CheckMem(addr, 1)
			want := sh.MustTaintedAt(addr, cfg.DomainSize)
			if res.CoarsePositive != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCheckMemClean(b *testing.B) {
	cfg := DefaultConfig()
	sh := shadow.MustNew(cfg.DomainSize)
	m := MustNew(cfg, sh)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CheckMem(uint32(i%4096)*16, 4)
	}
}

func BenchmarkCheckMemTainted(b *testing.B) {
	cfg := DefaultConfig()
	sh := shadow.MustNew(cfg.DomainSize)
	m := MustNew(cfg, sh)
	sh.SetRange(0, 4096, shadow.MustLabel(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CheckMem(uint32(i%1024)*4, 4)
	}
}

func TestFlushCachesPreservesVerdicts(t *testing.T) {
	for _, policy := range []ClearPolicy{EagerClear, LazyClear} {
		cfg := DefaultConfig()
		cfg.Clear = policy
		sh := shadow.MustNew(cfg.DomainSize)
		m := MustNew(cfg, sh)
		sh.SetRange(0x1000, 32, shadow.MustLabel(0))
		sh.SetRange(0x5000, 8, shadow.MustLabel(1))
		sh.SetRange(0x5000, 8, shadow.TagClean) // pending clear in lazy mode

		probes := []uint32{0x1000, 0x1020, 0x1800, 0x5000, 0x9000}
		before := make([]CheckResult, len(probes))
		for i, a := range probes {
			before[i] = m.CheckMem(a, 4)
		}
		m.FlushCaches()
		for i, a := range probes {
			after := m.CheckMem(a, 4)
			// Coarse positivity may only improve (pending clears scanned at
			// flush); it must never regress to a false negative.
			if before[i].TrulyTainted != after.TrulyTainted {
				t.Errorf("%v/%#x: truth changed across flush", policy, a)
			}
			if before[i].TrulyTainted && !after.CoarsePositive {
				t.Errorf("%v/%#x: flush introduced a false negative", policy, a)
			}
		}
		// Lazy mode: the flush scan retires the cleared domain.
		if policy == LazyClear && m.CTT().Bit(sh.DomainIndex(0x5000)) {
			t.Error("flush scan did not retire the cleared domain")
		}
	}
}

// Property: the page-level taint bits always agree with the CTT under
// eager clears — bit i of page pn is set iff some domain in that page-level
// domain has its CTT bit set (the multi-granular chaining of Figure 12).
func TestPageBitsMatchCTTProperty(t *testing.T) {
	type op struct {
		Addr  uint16
		Taint bool
	}
	f := func(ops []op) bool {
		cfg := DefaultConfig()
		sh := shadow.MustNew(cfg.DomainSize)
		m := MustNew(cfg, sh)
		for _, o := range ops {
			if o.Taint {
				sh.Set(uint32(o.Addr), shadow.MustLabel(0))
			} else {
				sh.Set(uint32(o.Addr), shadow.TagClean)
			}
		}
		pdSize := cfg.PageDomainSize()
		for pn := uint32(0); pn <= 0xFFFF>>12; pn++ {
			bits := m.PageTaintBits(pn)
			for pd := 0; pd < cfg.PageDomains(); pd++ {
				want := false
				base := pn<<12 + uint32(pd)*pdSize
				for off := uint32(0); off < pdSize; off += cfg.DomainSize {
					if m.CTT().Bit(sh.DomainIndex(base + off)) {
						want = true
						break
					}
				}
				if (bits&(1<<pd) != 0) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: under lazy clears followed by a full scan, the CTT converges to
// exactly the eager CTT for the same operation sequence.
func TestLazyScanConvergesToEager(t *testing.T) {
	type op struct {
		Addr  uint16
		Taint bool
	}
	f := func(ops []op) bool {
		build := func(policy ClearPolicy) *Module {
			cfg := DefaultConfig()
			cfg.Clear = policy
			sh := shadow.MustNew(cfg.DomainSize)
			m := MustNew(cfg, sh)
			for _, o := range ops {
				if o.Taint {
					sh.Set(uint32(o.Addr), shadow.MustLabel(0))
				} else {
					sh.Set(uint32(o.Addr), shadow.TagClean)
				}
			}
			return m
		}
		eager := build(EagerClear)
		lazy := build(LazyClear)
		lazy.ScanResidentClears()
		// Clear bits may have been evicted before their scan retired them;
		// residual stale bits are allowed only in the lazy direction
		// (conservative). After one more resident scan on a fully cached
		// word set they must match for all domains still resident. Compare
		// exact sets: every eager bit must be set in lazy (no lost taint).
		for _, w := range eager.CTT().WordIndices() {
			if eager.CTT().Word(w)&^lazy.CTT().Word(w) != 0 {
				return false // lazy lost taint: unsound
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
