package latch

import (
	"fmt"
	"math/bits"

	"latch/internal/cache"
	"latch/internal/shadow"
	"latch/internal/telemetry"
)

// ResolveLevel identifies which element of the taint-checking stack resolved
// a memory check (Figure 16's three categories).
type ResolveLevel int

// Resolve levels.
const (
	ResolvedTLB     ResolveLevel = iota // page taint bit clean: filtered at the TLB
	ResolvedCTC                         // domain bit clean: filtered at the CTC
	ResolvedPrecise                     // coarse positive: precise taint cache consulted
)

// String names the level.
func (l ResolveLevel) String() string {
	switch l {
	case ResolvedTLB:
		return "tlb"
	case ResolvedCTC:
		return "ctc"
	case ResolvedPrecise:
		return "t-cache"
	}
	return "unknown"
}

// CheckResult reports the outcome of one memory-operand taint check.
type CheckResult struct {
	Level          ResolveLevel
	CoarsePositive bool // the coarse state flagged the access
	TrulyTainted   bool // byte-precise ground truth over the accessed range
	FalsePositive  bool // coarse positive on untainted data (Figure 1, case B)
}

// Stats aggregates the module's event counters.
type Stats struct {
	Checks          uint64
	ResolvedTLB     uint64
	ResolvedCTC     uint64
	ResolvedPrecise uint64

	TLBMisses uint64

	CTCCheckAccesses uint64
	CTCCheckMisses   uint64
	CTCWriteAccesses uint64
	CTCWriteMisses   uint64

	TCacheAccesses uint64
	TCacheMisses   uint64

	BaselineTCacheAccesses uint64
	BaselineTCacheMisses   uint64

	CoarsePositives uint64
	TruePositives   uint64
	FalsePositives  uint64

	ClearScans         uint64
	ScannedDomains     uint64
	ScanClearedDomains uint64
}

// CTCMissPercent returns CTC check misses per memory check, as a percentage
// (Table 6 row 1).
func (s Stats) CTCMissPercent() float64 {
	if s.Checks == 0 {
		return 0
	}
	return 100 * float64(s.CTCCheckMisses) / float64(s.Checks)
}

// TCacheMissPercent returns precise-cache misses per memory check, as a
// percentage (Table 6 row 2).
func (s Stats) TCacheMissPercent() float64 {
	if s.Checks == 0 {
		return 0
	}
	return 100 * float64(s.TCacheMisses) / float64(s.Checks)
}

// CombinedMissPercent returns the combined CTC + t-cache miss rate per
// check (Table 6 row 3).
func (s Stats) CombinedMissPercent() float64 {
	if s.Checks == 0 {
		return 0
	}
	return 100 * float64(s.CTCCheckMisses+s.TCacheMisses) / float64(s.Checks)
}

// BaselineMissPercent returns the unfiltered taint cache's miss rate
// (Table 6 row 4).
func (s Stats) BaselineMissPercent() float64 {
	if s.BaselineTCacheAccesses == 0 {
		return 0
	}
	return 100 * float64(s.BaselineTCacheMisses) / float64(s.BaselineTCacheAccesses)
}

// MissesAvoidedPercent returns the share of baseline misses eliminated by
// LATCH filtering (Table 6 row 5).
func (s Stats) MissesAvoidedPercent() float64 {
	if s.BaselineTCacheMisses == 0 {
		return 0
	}
	avoided := float64(s.BaselineTCacheMisses) - float64(s.CTCCheckMisses+s.TCacheMisses)
	if avoided < 0 {
		avoided = 0
	}
	return 100 * avoided / float64(s.BaselineTCacheMisses)
}

// ShareResolved returns the fraction of checks resolved at each level
// (Figure 16).
func (s Stats) ShareResolved() (tlb, ctc, precise float64) {
	if s.Checks == 0 {
		return 0, 0, 0
	}
	n := float64(s.Checks)
	return float64(s.ResolvedTLB) / n, float64(s.ResolvedCTC) / n, float64(s.ResolvedPrecise) / n
}

// Module is one LATCH hardware instance bound to a byte-precise shadow
// state. All taint written to the shadow — by the DIFT engine, by stnt, or
// by taint sources — is reflected into the coarse state through shadow
// transition watchers, implementing the multi-granular update chain of
// Figure 12 (eager mode) or the clear-bit discipline of §5.1.4 (lazy mode).
//
// A Module models one core's checker and, like the hardware it models, is
// not safe for concurrent use: CheckMem, StoreTaint, and the shadow
// watchers mutate cache and counter state without locking. Independent
// Module instances (each over its own Shadow) are fully isolated and may be
// driven from separate goroutines — this one-module-per-worker rule is what
// the parallel experiment harness in internal/experiments relies on.
type Module struct {
	cfg    Config
	Shadow *shadow.Shadow

	ctt *CTT
	// pdCount holds the tainted-domain count of each page-level taint
	// domain, indexed directly by global page-domain index. Pre-sized from
	// Config.AddressSpan; grown geometrically beyond it.
	pdCount []uint32
	trf     TRF

	tlb        *cache.TLB
	ctc        *cache.Cache
	tcache     *cache.Cache
	baseTcache *cache.Cache

	stats Stats
	obs   telemetry.Observer
}

// New builds a module over sh using cfg. The module registers itself as
// sh's transition watcher.
func New(cfg Config, sh *shadow.Shadow) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sh.DomainSize() != cfg.DomainSize {
		return nil, fmt.Errorf("latch: shadow domain size %d does not match config %d",
			sh.DomainSize(), cfg.DomainSize)
	}
	m := &Module{
		cfg:     cfg,
		Shadow:  sh,
		ctt:     NewCTTSized(int(cfg.AddressSpan / cfg.WordCoverage())),
		pdCount: make([]uint32, cfg.AddressSpan/cfg.PageDomainSize()),
		tlb:     cache.MustNewTLB(cfg.TLBEntries, cfg.PageDomains()),
		ctc: cache.MustNew(cache.Config{
			Name:     "ctc",
			Sets:     1,
			Ways:     cfg.CTCEntries,
			LineSize: cfg.WordCoverage(),
		}),
		tcache: cache.MustNew(cfg.TCache),
	}
	if cfg.BaselineTCache {
		base := cfg.TCache
		base.Name = "tcache-baseline"
		m.baseTcache = cache.MustNew(base)
	}
	sh.OnDomainTransition(m.onDomainTransition)
	if cfg.Clear == LazyClear {
		// Clear bits are maintained at byte-write granularity: any
		// tainted-to-clean byte write asserts the domain's clear bit, any
		// re-taint retires it (§5.1.4).
		sh.OnByteTransition(m.onByteTransition)
	}
	return m, nil
}

// MustNew is New panicking on error.
func MustNew(cfg Config, sh *shadow.Shadow) *Module {
	m, err := New(cfg, sh)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the module configuration.
func (m *Module) Config() Config { return m.cfg }

// SetObserver attaches obs to the module's check path: coarse-check
// resolves, TLB/CTC/t-cache misses, and CTC evictions are emitted through
// it. A nil observer (the default) reduces every emission site to a single
// predictable branch; see BenchmarkCheckMemNilObserver.
func (m *Module) SetObserver(obs telemetry.Observer) { m.obs = obs }

// Stats returns a copy of the counters.
func (m *Module) Stats() Stats { return m.stats }

// CTT exposes the coarse taint table (read-mostly; used by experiments).
func (m *Module) CTT() *CTT { return m.ctt }

// TRF returns the taint register file.
func (m *Module) TRF() *TRF { return &m.trf }

// TLBStats returns the TLB's cache statistics.
func (m *Module) TLBStats() cache.Stats { return m.tlb.Stats() }

// pdSize returns the page-domain size in bytes.
func (m *Module) pdSize() uint32 { return m.cfg.PageDomainSize() }

// pdIndex returns the global page-domain index of addr.
func (m *Module) pdIndex(addr uint32) uint32 { return addr / m.pdSize() }

// PageTaintBits returns the authoritative page-level taint bit vector for
// page pn — what a page-table walk would deliver to the TLB (§4.2). Bit i
// covers the i-th page-level taint domain.
func (m *Module) PageTaintBits(pn uint32) uint32 { return m.pageBits(pn) }

// pageBits assembles the TLB fill vector for page pn from page-domain
// counts (the page-table walk of §4.2).
func (m *Module) pageBits(pn uint32) uint32 {
	perPage := uint32(m.cfg.PageDomains())
	base := pn * perPage
	if int(base) >= len(m.pdCount) {
		return 0
	}
	var bitsV uint32
	for i := uint32(0); i < perPage; i++ {
		if int(base+i) < len(m.pdCount) && m.pdCount[base+i] > 0 {
			bitsV |= 1 << i
		}
	}
	return bitsV
}

// pdGrow extends pdCount to cover index i, at least doubling.
func (m *Module) pdGrow(i uint32) {
	n := len(m.pdCount) * 2
	if n < 1024 {
		n = 1024
	}
	for n <= int(i) {
		n *= 2
	}
	nc := make([]uint32, n)
	copy(nc, m.pdCount)
	m.pdCount = nc
}

// onDomainTransition is the shadow watcher: it propagates byte-precise
// domain transitions into the CTT, the page-domain counts, the TLB taint
// bits, and the CTC (write-through), honoring the clear policy.
func (m *Module) onDomainTransition(d uint32, tainted bool) {
	addr := m.Shadow.DomainBase(d)
	if tainted {
		if m.ctt.SetBit(d) {
			m.pdTaintInc(addr)
		}
		// Write-through: the update travels via the taint cache (stnt /
		// Figure 12), allocating on miss.
		line := m.ctcWrite(addr)
		line.Data |= 1 << bitOf(d)
		line.Aux &^= 1 << bitOf(d) // re-assertion retires any pending clear
		return
	}
	switch m.cfg.Clear {
	case EagerClear:
		if m.ctt.ClearBit(d) {
			m.pdTaintDec(addr)
		}
		if line, ok := m.ctc.Probe(addr); ok {
			line.Data &^= 1 << bitOf(d)
		}
	case LazyClear:
		// The CTT bit stays; the byte watcher has already recorded the
		// clear candidate in the CTC's clear bits.
	}
}

// onByteTransition implements the lazy clear-bit discipline: it fires on
// every byte-level taint change, before domain-granularity knowledge is
// consulted, matching the stnt hardware which sees only the written tag.
func (m *Module) onByteTransition(addr uint32, tainted bool) {
	d := m.Shadow.DomainIndex(addr)
	if tainted {
		// A nonzero write retires any pending clear for the domain.
		if line, ok := m.ctc.Probe(addr); ok {
			line.Aux &^= 1 << bitOf(d)
			line.Data |= 1 << bitOf(d)
		}
		return
	}
	line := m.ctcWrite(addr)
	line.Aux |= 1 << bitOf(d)
}

func (m *Module) pdTaintInc(addr uint32) {
	pd := m.pdIndex(addr)
	if int(pd) >= len(m.pdCount) {
		m.pdGrow(pd)
	}
	m.pdCount[pd]++
	if m.pdCount[pd] == 1 {
		m.tlb.UpdateTaintBit(addr, true)
	}
}

func (m *Module) pdTaintDec(addr uint32) {
	pd := m.pdIndex(addr)
	if int(pd) >= len(m.pdCount) || m.pdCount[pd] == 0 {
		return
	}
	m.pdCount[pd]--
	if m.pdCount[pd] == 0 {
		m.tlb.UpdateTaintBit(addr, false)
	}
}

// ctcWrite performs a write-allocate CTC access for the CTT word covering
// addr, filling from the CTT on a miss and running the eviction clear scan.
func (m *Module) ctcWrite(addr uint32) *cache.Line {
	m.stats.CTCWriteAccesses++
	line, hit, ev := m.ctc.Access(addr)
	if !hit {
		m.stats.CTCWriteMisses++
		if m.obs != nil {
			m.obs.CacheMiss(telemetry.CacheCTC)
		}
		m.handleEviction(ev)
		line.Data = m.ctt.Word(WordIndex(m.Shadow.DomainIndex(addr)))
	}
	return line
}

// ctcCheckAccess performs a read access for a taint check.
func (m *Module) ctcCheckAccess(addr uint32) *cache.Line {
	m.stats.CTCCheckAccesses++
	line, hit, ev := m.ctc.Access(addr)
	if !hit {
		m.stats.CTCCheckMisses++
		if m.obs != nil {
			m.obs.CacheMiss(telemetry.CacheCTC)
		}
		m.handleEviction(ev)
		line.Data = m.ctt.Word(WordIndex(m.Shadow.DomainIndex(addr)))
	}
	return line
}

// handleEviction runs the clear-bit scan over an evicted CTC line (§5.1.4:
// "a check is also triggered whenever a CTC word with asserted clear bits is
// evicted").
func (m *Module) handleEviction(ev cache.Eviction) {
	if !ev.Valid {
		return
	}
	if m.obs != nil {
		m.obs.CacheEviction(telemetry.CacheCTC, ev.Aux != 0)
	}
	if ev.Aux == 0 {
		return
	}
	m.scanWord(ev.Addr, ev.Aux, nil)
}

// scanWord checks each clear-bit-flagged domain of the CTT word covering
// baseAddr against the precise state, clearing fully-clean domains. line,
// when non-nil, is the resident CTC line to keep in sync.
func (m *Module) scanWord(baseAddr uint32, clearBits uint32, line *cache.Line) {
	m.stats.ClearScans++
	firstDomain := m.Shadow.DomainIndex(baseAddr) &^ (CTTWordBits - 1)
	for cb := clearBits; cb != 0; cb &= cb - 1 {
		bit := uint32(bits.TrailingZeros32(cb))
		d := firstDomain + bit
		m.stats.ScannedDomains++
		if m.Shadow.DomainTaintedBytes(d) != 0 {
			continue
		}
		if m.ctt.ClearBit(d) {
			m.stats.ScanClearedDomains++
			m.pdTaintDec(m.Shadow.DomainBase(d))
		}
		if line != nil {
			line.Data &^= 1 << bit
		}
	}
	if line != nil {
		line.Aux = 0
	}
}

// ScanResidentClears runs the clear-bit scan over every resident CTC line —
// the synchronization S-LATCH performs before returning control to hardware
// monitoring (§5.1.4). It returns the number of domains scanned.
func (m *Module) ScanResidentClears() uint64 {
	before := m.stats.ScannedDomains
	m.ctc.ForEach(func(addr uint32, line *cache.Line) {
		if line.Aux != 0 {
			m.scanWord(addr, line.Aux, line)
		}
	})
	return m.stats.ScannedDomains - before
}

// checkPoint routes one address through the TLB → CTC stack and returns the
// resolve level and the coarse verdict for that point.
func (m *Module) checkPoint(addr uint32) (ResolveLevel, bool) {
	pdTainted, hit := m.tlb.Access(addr, m.pageBits)
	if !hit {
		m.stats.TLBMisses++
		if m.obs != nil {
			m.obs.CacheMiss(telemetry.CacheTLB)
		}
	}
	if !pdTainted {
		return ResolvedTLB, false
	}
	line := m.ctcCheckAccess(addr)
	d := m.Shadow.DomainIndex(addr)
	if line.Data&(1<<bitOf(d)) == 0 {
		return ResolvedCTC, false
	}
	return ResolvedPrecise, true
}

// CheckMem performs the coarse taint check the LATCH hardware applies to a
// committed memory operand of the given size. Coarse positives proceed to
// the precise taint cache; the result carries the byte-precise ground truth
// so callers (the S-LATCH exception handler, the H-LATCH pipeline) can
// distinguish true hits from false positives.
func (m *Module) CheckMem(addr uint32, size int) CheckResult {
	m.stats.Checks++
	if size < 1 {
		size = 1
	}

	level, positive := m.checkPoint(addr)
	// A multi-byte operand may straddle a domain boundary; the hardware
	// checks the last byte's domain as well.
	if end := addr + uint32(size-1); m.Shadow.DomainIndex(end) != m.Shadow.DomainIndex(addr) {
		l2, p2 := m.checkPoint(end)
		if l2 > level {
			level = l2
		}
		positive = positive || p2
	}

	res := CheckResult{Level: level, CoarsePositive: positive}
	switch level {
	case ResolvedTLB:
		m.stats.ResolvedTLB++
	case ResolvedCTC:
		m.stats.ResolvedCTC++
	case ResolvedPrecise:
		m.stats.ResolvedPrecise++
		// The precise taint cache is consulted for the operand's tags.
		m.stats.TCacheAccesses++
		if _, hit, _ := m.tcache.Access(addr); !hit {
			m.stats.TCacheMisses++
			if m.obs != nil {
				m.obs.CacheMiss(telemetry.CacheTCache)
			}
		}
		res.TrulyTainted = m.Shadow.RangeTainted(addr, size)
	}

	if positive {
		m.stats.CoarsePositives++
		if res.TrulyTainted {
			m.stats.TruePositives++
		} else {
			res.FalsePositive = true
			m.stats.FalsePositives++
		}
	}

	// The unfiltered baseline sees every check.
	if m.baseTcache != nil {
		m.stats.BaselineTCacheAccesses++
		if _, hit, _ := m.baseTcache.Access(addr); !hit {
			m.stats.BaselineTCacheMisses++
		}
	}
	if m.obs != nil {
		m.obs.CoarseCheck(telemetry.Level(level), positive, res.FalsePositive)
	}
	return res
}

// StoreTaint is the stnt entry point: the software DIFT layer updates the
// taint of one byte, writing through the CTC rather than the data cache
// (Table 5). Per §5.1.4, in lazy mode the domain's clear bit is asserted
// whenever a zero tag is written — even if other bytes of the domain remain
// tainted; the scan sorts that out — and de-asserted by any nonzero write.
// Returns the previous tag.
func (m *Module) StoreTaint(addr uint32, tag shadow.Tag) shadow.Tag {
	old := m.Shadow.Get(addr)
	before := m.stats.CTCWriteAccesses
	m.Shadow.Set(addr, tag) // transitions reach the CTC via the watcher
	if m.stats.CTCWriteAccesses == before {
		// No domain transition fired: the stnt write still travels through
		// the taint cache.
		line := m.ctcWrite(addr)
		d := m.Shadow.DomainIndex(addr)
		if m.cfg.Clear == LazyClear {
			if tag == shadow.TagClean {
				line.Aux |= 1 << bitOf(d)
			} else {
				line.Aux &^= 1 << bitOf(d)
				line.Data |= 1 << bitOf(d)
			}
		}
	}
	return old
}

// FlushCaches empties the TLB and the CTC, as a context switch or TLB
// shootdown would. Lazy-mode clear bits are scanned before their lines are
// discarded (the eviction rule of §5.1.4 applied wholesale), so no pending
// clear is lost. The authoritative CTT and page-table bits are untouched;
// subsequent checks refill from them, making the flush invisible to check
// verdicts.
func (m *Module) FlushCaches() {
	m.ctc.ForEach(func(addr uint32, line *cache.Line) {
		if line.Aux != 0 {
			m.scanWord(addr, line.Aux, line)
		}
	})
	m.ctc.Flush(nil)
	m.tlb.Flush()
}

// Reset returns the module to its just-constructed state: the CTT, the
// page-domain counts, and the taint register file are cleared, every cache
// (TLB, CTC, taint caches) is emptied without scanning — there is no taint
// left to retire — and all statistics are zeroed. The attached shadow state
// is not touched; callers recycling a whole session reset it separately
// (engine.Session.Recycle does both, in that order).
func (m *Module) Reset() {
	m.ctt.Reset()
	clear(m.pdCount)
	m.trf.Reset()
	m.tlb.Flush()
	m.ctc.Flush(nil)
	m.tcache.Flush(nil)
	if m.baseTcache != nil {
		m.baseTcache.Flush(nil)
	}
	m.ResetStats()
}

// ResetStats zeroes counters without touching coarse or precise state.
func (m *Module) ResetStats() {
	m.stats = Stats{}
	m.ctc.ResetStats()
	m.tcache.ResetStats()
	if m.baseTcache != nil {
		m.baseTcache.ResetStats()
	}
	m.tlb.ResetStats()
}
