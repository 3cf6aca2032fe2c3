package workload

import (
	"fmt"

	"latch/internal/mem"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/trace"
)

// Generator produces the deterministic event stream for one benchmark
// profile and materializes the profile's taint layout into a shadow memory.
// The stream interleaves taint-free epochs (drawn from the profile's epoch
// classes) with taint-handling bursts whose internal density reproduces the
// benchmark's Table 1/2 taint percentage by construction.
//
// Every decision the stream makes with a probability p compares the next
// rng.unit draw with threshold(p), computed once when the generator is
// built, which decides exactly what rand.Rand.Float64() < p would.
// Taint-free instructions, the bulk of every stream, are written in place
// into the batch by one loop, cleanInstrs.
type Generator struct {
	p  Profile
	sh *shadow.Shadow

	// Selective tracing: sampled-out runs stay clean in the shadow and
	// their events are emitted untainted; everything else about the
	// stream — the addresses, the epoch schedule, the RNG draws — is
	// unchanged, so the same profile seed produces the same access
	// pattern at every fraction.
	runSampler

	// stopped is set by Stop: RunBatches returns at the next event
	// boundary and delivers nothing more. Once stopped the stream must not
	// be continued — the abandoned epoch schedule state would skew
	// subsequent epochs.
	stopped bool

	// Layout: the footprint occupies contiguous pages starting at
	// basePage, with the tainted block in the middle
	// (taintStart..taintStart+tainted).
	taintStart int // index of first tainted page within the footprint
	period     int // RunLen+GapLen
	tbpp       int // tainted bytes per tainted page
	gbpp       int // gap (clean) bytes per tainted page

	// The thresholds of the profile's probabilities.
	memCut     uint64 // MemFraction: the instruction accesses memory
	jumpCut    uint64 // JumpProb
	randomCut  uint64 // NearTaintRandom
	densityCut uint64 // P(burst instruction touches a tainted byte)
	churnCut   uint64 // ChurnProb
	cleanCuts  accessCuts
	burstCuts  accessCuts

	// Cursors.
	cleanPage, cleanOff int
	taintIdx            int // global tainted-byte index
	reuseLeft           int
	mixIdx              int // global gap-byte index

	hotBase uint32 // address of the first of the hotWords hot words

	// pending holds churned runs awaiting re-taint; freed holds runs whose
	// buffers were released for clean reuse and stay clean until the taint
	// cursor wraps (when the layout is re-materialized for consistency).
	pending []retaint
	freed   []retaint

	// Epoch schedule state.
	emittedClean []float64
	activeCarry  float64
	seq          uint64

	// The current RunBatches call's batch: events are written in place into
	// batch[:n] and handed to deliver. gridLeft counts the events until the
	// next multiple of len(batch) in the stream sequence, where a batch
	// always closes.
	batch    []trace.Event
	n        int
	gridLeft int
	deliver  func([]trace.Event)

	rng rng
}

// accessCuts splits a taint-free instruction's memory accesses in one
// phase: a unit draw below near picks a near-taint address, one below hot
// a hot word, and any other the clean walk.
type accessCuts struct{ near, hot uint64 }

// newAccessCuts returns the cut points of a phase whose accesses wander
// near taint with probability nearProb.
func newAccessCuts(nearProb, hotFraction float64) accessCuts {
	return accessCuts{near: threshold(nearProb), hot: threshold(nearProb + (1-nearProb)*hotFraction)}
}

// The thresholds of the stream's constant probabilities: a memory access
// is a write with probability 0.3, and churn's and a burst's re-taint
// decisions are coin flips.
var (
	writeCut = threshold(0.3)
	halfCut  = threshold(0.5)
)

// hotWords is the number of hot words, consecutive words from hotBase.
const hotWords = 16

// basePage is the page number where generated footprints start
// (0x10000000 >> 12).
const basePage = 0x10000

// maxPagesAccessed (983,040) is the largest footprint a profile may have:
// its pages start at basePage and must all lie below the top of the 32-bit
// address space, or page addresses would wrap and alias each other.
const maxPagesAccessed = 1<<(32-mem.PageShift) - basePage

// NewGenerator builds a generator for profile p over a fresh shadow with the
// given taint-domain size.
func NewGenerator(p Profile, domainSize uint32) (*Generator, error) {
	return NewSampledGenerator(p, domainSize, policy.Sampling{})
}

// NewSampledGenerator is NewGenerator with a selective-tracing spec: the
// profile's taint runs are deterministically sampled by spl before being
// materialized (see NewSampledGeneratorOn).
func NewSampledGenerator(p Profile, domainSize uint32, spl policy.Sampling) (*Generator, error) {
	sh, err := shadow.New(domainSize)
	if err != nil {
		return nil, err
	}
	return NewSampledGeneratorOn(p, sh, spl)
}

// NewGeneratorOn builds a generator for profile p over an existing shadow,
// writing the layout into it. Whatever watches the shadow sees the layout's
// transitions as hardware would observe the taint being written: a LATCH
// module's own watchers build its coarse state from them, and the engine's
// recorder turns them into one record for its modules' bulk load. The
// shadow must be empty.
func NewGeneratorOn(p Profile, sh *shadow.Shadow) (*Generator, error) {
	return NewSampledGeneratorOn(p, sh, policy.Sampling{})
}

// NewSampledGeneratorOn is NewGeneratorOn under a selective-tracing spec.
// A disabled spec (the zero value, or SampleFraction 1.0) reproduces the
// unsampled generator exactly — same shadow writes in the same order,
// same stream; a partial fraction keeps the sampled-out runs clean
// end-to-end (through materialization, churn, and re-taint) while the
// access pattern stays identical across fractions.
func NewSampledGeneratorOn(p Profile, sh *shadow.Shadow, spl policy.Sampling) (*Generator, error) {
	if err := spl.Validate(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", p.Name, err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sh.TaintedBytes() != 0 {
		return nil, fmt.Errorf("workload %s: shadow already holds taint", p.Name)
	}
	g := &Generator{
		p:            p,
		sh:           sh,
		taintStart:   (p.PagesAccessed - p.PagesTainted) / 2,
		period:       p.RunLen + p.GapLen,
		memCut:       threshold(p.MemFraction),
		jumpCut:      threshold(p.JumpProb),
		randomCut:    threshold(p.NearTaintRandom),
		densityCut:   threshold(p.TaintPct / 100 / p.ActiveShare),
		churnCut:     threshold(p.ChurnProb),
		cleanCuts:    newAccessCuts(p.CleanNearTaint, p.HotFraction),
		burstCuts:    newAccessCuts(p.BurstNearTaint, p.HotFraction),
		reuseLeft:    p.TaintReuse,
		emittedClean: make([]float64, len(p.Epochs)),
		tbpp:         taintedPerPage(p),
		runSampler:   newRunSampler(spl),
	}
	g.gbpp = mem.PageSize - g.tbpp
	g.rng.seed(p.Seed)
	if g.gbpp == 0 && (p.CleanNearTaint > 0 || p.BurstNearTaint > 0) {
		return nil, fmt.Errorf("workload %s: near-taint accesses configured but layout has no clean bytes in tainted pages", p.Name)
	}
	g.materialize()
	// Hot words live at the start of the first (clean) footprint page.
	g.hotBase = g.pageAddr(g.cleanPageNumber(0))
	return g, nil
}

// MustNewGenerator is NewGenerator panicking on error.
func MustNewGenerator(p Profile, domainSize uint32) *Generator {
	g, err := NewGenerator(p, domainSize)
	if err != nil {
		panic(err)
	}
	return g
}

// Shadow returns the materialized byte-precise taint state.
func (g *Generator) Shadow() *shadow.Shadow { return g.sh }

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.p }

// pageAddr converts a footprint page index to its base address.
func (g *Generator) pageAddr(pageIdx int) uint32 {
	return (basePage + uint32(pageIdx)) << mem.PageShift
}

// cleanPageNumber maps the i-th clean page (0-based) to its footprint page
// index, skipping the tainted block.
func (g *Generator) cleanPageNumber(i int) int {
	if i < g.taintStart {
		return i
	}
	return i + g.p.PagesTainted
}

// cleanPageCount returns the number of taint-free footprint pages.
func (g *Generator) cleanPageCount() int { return g.p.PagesAccessed - g.p.PagesTainted }

// pagePhase returns the per-page rotation of the run/gap pattern. Real
// input buffers are not aligned to taint-domain boundaries; rotating each
// page's pattern by a different phase makes coarse units straddle runs the
// way Figure 6's false-positive analysis requires.
func (g *Generator) pagePhase(pageIdx int) int {
	if g.gbpp == 0 {
		return 0
	}
	return (pageIdx * 17) % g.period
}

// phaseCycle returns a k > 0 for which every page has the phase of the
// page k after it: the period, since the phase steps by 17 bytes per page
// modulo it, or 1 when runs fill whole pages.
func (g *Generator) phaseCycle() int {
	if g.gbpp == 0 {
		return 1
	}
	return g.period
}

// rotate applies the page phase to an intra-page offset.
func (g *Generator) rotate(pageIdx, off int) int {
	return (off + g.pagePhase(pageIdx)) % mem.PageSize
}

// taintAddr returns the address of the i-th tainted byte (wrapping).
func (g *Generator) taintAddr(i int) uint32 {
	total := g.tbpp * g.p.PagesTainted
	i %= total
	page := g.taintStart + i/g.tbpp
	j := i % g.tbpp
	var off int
	if g.gbpp == 0 {
		off = j
	} else {
		off = g.rotate(page, (j/g.p.RunLen)*g.period+j%g.p.RunLen)
	}
	return g.pageAddr(page) + uint32(off)
}

// gapAddr returns the address of the i-th clean ("gap") byte inside the
// tainted block (wrapping). Only valid when gbpp > 0.
func (g *Generator) gapAddr(i int) uint32 {
	total := g.gbpp * g.p.PagesTainted
	i %= total
	page := g.taintStart + i/g.gbpp
	j := i % g.gbpp
	gapPerPeriod := g.period - g.p.RunLen
	fullGaps := (mem.PageSize / g.period) * gapPerPeriod
	var off int
	if j < fullGaps {
		off = (j/gapPerPeriod)*g.period + g.p.RunLen + j%gapPerPeriod
	} else {
		// Tail gap bytes beyond the last full period occupy the end of the
		// page (only when the period does not divide the page size).
		off = mem.PageSize - (g.gbpp - j)
	}
	return g.pageAddr(page) + uint32(g.rotate(page, off))
}

// totalTaintBytes is the size of the profile's tainted-byte index space.
func (g *Generator) totalTaintBytes() int { return g.tbpp * g.p.PagesTainted }

// taintedPerPage returns how many bytes of each tainted page p's runs
// cover: the whole page when a run fills it, else the runs of the page's
// whole periods plus as much of one more run as fits before the page ends.
func taintedPerPage(p Profile) int {
	if p.RunLen >= mem.PageSize {
		return mem.PageSize
	}
	period := p.RunLen + p.GapLen
	return mem.PageSize/period*p.RunLen + min(mem.PageSize%period, p.RunLen)
}

// taintRuns returns the number of p's global taint runs: its tainted-byte
// index space cut into RunLen-byte runs, the last one possibly shorter. A
// run of a layout whose runs do not fill its pages may span two pages.
func taintRuns(p Profile) int {
	return (taintedPerPage(p)*p.PagesTainted + p.RunLen - 1) / p.RunLen
}

// runSampler is the selective-tracing rule over a layout's taint runs:
// when sampled is set (a SampleFraction strictly between 0 and 1), whole
// runs are deterministically sampled in or out by the policy sampler
// (KindLayout, ordinal = global run index).
type runSampler struct {
	smp     policy.Sampler
	sampled bool
}

func newRunSampler(spl policy.Sampling) runSampler {
	return runSampler{smp: policy.NewSampler(spl), sampled: spl.Enabled()}
}

// runSampled reports whether the given global taint run is tainted under
// the selective-tracing spec. With sampling disabled every run is in.
func (s runSampler) runSampled(run int) bool {
	if !s.sampled {
		return true
	}
	return s.smp.Sample(policy.KindLayout, uint64(run))
}

// LayoutKey returns the taint layout spl materializes for p as a run set:
// one bit per global taint run of p, set when spl keeps the run, so a
// disabled spec sets every bit. A generator reads spl only through the runs
// it keeps, and a sampled spec that keeps every run writes them in the
// unsampled layout's byte order, so two specs have equal keys exactly when
// they leave the same shadow, report the same transitions to its watchers
// in the same order, and emit the same stream. The key is exact, not a
// hash, and writes no shadow. Keys of different profiles are not
// comparable.
func LayoutKey(p Profile, spl policy.Sampling) string {
	s, runs := newRunSampler(spl), taintRuns(p)
	key := make([]byte, (runs+7)/8)
	for run := range runs {
		if s.runSampled(run) {
			key[run/8] |= 1 << (run % 8)
		}
	}
	return string(key)
}

// taintTag is the tag tainted-byte index i carries: the taint label when
// its run is sampled in, clean when sampled out.
func (g *Generator) taintTag(i int) shadow.Tag {
	if g.runSampled(i / g.p.RunLen) {
		return shadow.MustLabel(0)
	}
	return shadow.TagClean
}

// materialize writes the static taint layout into the shadow, page by page
// in ascending order, each page's runs from its phase offset up, wrapping
// once: the order the shadow's watchers, and the bulk load's CTC warm-up
// after them, see the layout in. Unsampled, every tainted page holds the
// pattern of the page phaseCycle() before it, so only the first cycle of
// pages, the pattern pages, is written run by run; each later page is a
// copy-on-write alias of its pattern page, which shadow.AliasPage reports
// in the same byte order.
func (g *Generator) materialize() {
	if g.sampled {
		// Selective tracing: materialize run by run, skipping sampled-out
		// runs so they never enter the shadow (or the coarse state built
		// by its watchers).
		total := g.totalTaintBytes()
		for run := range taintRuns(g.p) {
			if !g.runSampled(run) {
				continue
			}
			start := run * g.p.RunLen
			g.setRunTaint(start, min(g.p.RunLen, total-start), shadow.MustLabel(0))
		}
		return
	}
	tag := shadow.MustLabel(0)
	k := g.phaseCycle()
	for pi := 0; pi < g.p.PagesTainted; pi++ {
		page := g.taintStart + pi
		if pi >= k {
			pn := basePage + uint32(page)
			if err := g.sh.AliasPage(pn, pn-uint32(pi/k*k), uint32(g.rotate(page, 0))); err != nil {
				panic(err) // the pages are in range, and the shadow was empty
			}
			continue
		}
		pageBase := g.pageAddr(page)
		if g.gbpp == 0 {
			g.sh.SetRange(pageBase, mem.PageSize, tag)
			continue
		}
		for off := 0; off < mem.PageSize; off += g.period {
			n := g.p.RunLen
			if off+n > mem.PageSize {
				n = mem.PageSize - off
			}
			// The rotated run is contiguous in page-offset space except for
			// at most one wrap, so it materializes as one or two bulk range
			// writes — in the same byte order a byte-wise loop would use.
			start := g.rotate(page, off)
			first := n
			if start+first > mem.PageSize {
				first = mem.PageSize - start
			}
			g.sh.SetRange(pageBase+uint32(start), first, tag)
			if n > first {
				g.sh.SetRange(pageBase, n-first, tag)
			}
		}
	}
}

// nextCleanAddr advances the sequential clean-walk cursor.
func (g *Generator) nextCleanAddr() uint32 {
	if g.rng.unit() < g.jumpCut {
		g.cleanPage = g.rng.Intn(g.cleanPageCount())
		g.cleanOff = 4 * g.rng.Intn(mem.PageSize/4)
	}
	addr := g.pageAddr(g.cleanPageNumber(g.cleanPage)) + uint32(g.cleanOff)
	g.cleanOff += 4
	if g.cleanOff >= mem.PageSize {
		g.cleanOff = 0
		g.cleanPage++
		if g.cleanPage >= g.cleanPageCount() {
			g.cleanPage = 0
		}
	}
	return addr
}

// nearTaintAddr produces a clean-byte address inside the tainted block:
// random across tainted pages with probability NearTaintRandom, else the
// sequential mix cursor. The cursor models orderly traversal of the clean
// regions between taint (it prefers bytes whose taint domain is clean, so
// these checks resolve at the CTC); the random mode models pointer-chasing
// that lands anywhere in the tainted block, including clean bytes inside
// tainted domains — LATCH's false positives.
func (g *Generator) nearTaintAddr() uint32 {
	if g.rng.unit() < g.randomCut {
		return g.gapAddr(g.rng.Intn(g.gbpp * g.p.PagesTainted))
	}
	for tries := 0; tries < 64; tries++ {
		addr := g.gapAddr(g.mixIdx)
		g.mixIdx++ // byte-wise walk: adjacent probes share cache lines
		if !g.sh.DomainTainted(g.sh.DomainIndex(addr)) {
			return addr
		}
	}
	return g.gapAddr(g.mixIdx)
}

// nextTaintAddr walks the tainted bytes with the profile's reuse factor.
// finishedRun is the index of the taint run the cursor just moved past
// (-1 otherwise) — the unit the workload may churn.
func (g *Generator) nextTaintAddr() (addr uint32, finishedRun int) {
	finishedRun = -1
	addr = g.taintAddr(g.taintIdx)
	g.reuseLeft--
	if g.reuseLeft <= 0 {
		g.reuseLeft = g.p.TaintReuse
		prev := g.taintIdx
		g.taintIdx += 4
		if prev/g.p.RunLen != g.taintIdx/g.p.RunLen {
			finishedRun = prev / g.p.RunLen
		}
		if g.taintIdx >= g.tbpp*g.p.PagesTainted {
			// Cursor wrap: restore every freed run so the enumeration stays
			// consistent with the byte-precise state.
			g.taintIdx = 0
			if len(g.freed) > 0 {
				g.closeBatch()
			}
			for _, f := range g.freed {
				g.restoreRun(f.idx, f.n)
			}
			g.freed = g.freed[:0]
			g.flushRetaints()
		}
	}
	return addr, finishedRun
}

// closeBatch hands the events written so far to deliver. Besides the grid
// lines, the stream closes the batch before every shadow mutation, so each
// event is consumed against the state it was generated under: batched
// delivery stays observably identical to per-event delivery.
func (g *Generator) closeBatch() {
	if g.n == 0 {
		return
	}
	n := g.n
	g.n = 0
	if !g.stopped {
		g.deliver(g.batch[:n])
	}
}

// retaint is a deferred re-assertion of taint over a churned run,
// identified by its tainted-byte index range.
type retaint struct {
	idx int    // first tainted-byte index of the run
	n   int    // run length in bytes
	due uint64 // seq at which the run is re-tainted
}

// setRunTaint writes tag over the tainted bytes [idx, idx+n), wrapping past
// the end of the index space, in index order. Consecutive indices stay
// consecutive addresses up to the end of the page pattern's run, the
// rotated page's wrap and the end of the index space, so each such span is
// one SetRange: a run in one page is one or two. SetRange's contract makes
// this the sequence of per-byte Sets it replaces.
func (g *Generator) setRunTaint(idx, n int, tag shadow.Tag) {
	total := g.totalTaintBytes()
	for n > 0 {
		i := idx % total
		addr := g.taintAddr(i)
		span := min(n, total-i)
		if g.gbpp > 0 {
			j := i % g.tbpp
			span = min(span, g.p.RunLen-j%g.p.RunLen, g.tbpp-j, mem.PageSize-int(addr%mem.PageSize))
		}
		g.sh.SetRange(addr, span, tag)
		idx += span
		n -= span
	}
}

// restoreRun re-asserts the materialized taint of [idx, idx+n) after a
// churn clear, each run with its own taintTag. The per-run tag matters
// because a churned range that wraps past the end of the index space
// spills into run 0, whose sampling decision may differ. With sampling
// disabled this writes what setRunTaint(idx, n, label 0) writes.
func (g *Generator) restoreRun(idx, n int) {
	total := g.totalTaintBytes()
	for n > 0 {
		i := idx % total
		span := min(n, g.p.RunLen-i%g.p.RunLen, total-i)
		g.setRunTaint(i, span, g.taintTag(i))
		idx += span
		n -= span
	}
}

// applyRetaints re-taints every churned run whose deadline has passed.
func (g *Generator) applyRetaints() {
	due := false
	for _, r := range g.pending {
		if r.due <= g.seq {
			due = true
			break
		}
	}
	if !due {
		return
	}
	g.closeBatch()
	n := 0
	for _, r := range g.pending {
		if r.due > g.seq {
			g.pending[n] = r
			n++
			continue
		}
		g.restoreRun(r.idx, r.n)
	}
	g.pending = g.pending[:n]
}

// flushRetaints re-taints every outstanding churned run immediately.
func (g *Generator) flushRetaints() {
	if len(g.pending) == 0 {
		return
	}
	g.closeBatch()
	for _, r := range g.pending {
		g.restoreRun(r.idx, r.n)
	}
	g.pending = g.pending[:0]
}

// cleanInstrs emits n taint-free instructions, writing each event in place
// into the batch; c splits their memory accesses between near-taint
// addresses, hot words and the clean walk. It returns early when a batch it
// closes stops the generator. The batch cursor and the sequence number live
// in locals until the loop closes a batch or ends, which holds because the
// address helpers it calls neither read them nor mutate the shadow.
func (g *Generator) cleanInstrs(n uint64, c accessCuts) {
	r := &g.rng
	batch, i, left, seq := g.batch, g.n, g.gridLeft, g.seq
	for ; n > 0; n-- {
		seq++
		ev := &batch[i]
		*ev = trace.Event{Seq: seq, PC: 0x1000 + uint32(seq%4096)*4}
		if r.unit() < g.memCut {
			ev.IsMem = true
			switch u := r.unit(); {
			case u < c.near:
				ev.Addr, ev.Size = g.nearTaintAddr(), 1
			case u < c.hot:
				ev.Addr, ev.Size = g.hotBase+4*uint32(r.Intn(hotWords)), 4
			default:
				ev.Addr, ev.Size = g.nextCleanAddr(), 4
			}
			ev.IsWrite = r.unit() < writeCut
		}
		i++
		if left--; left == 0 {
			g.seq, g.n, g.gridLeft = seq, i, len(batch)
			g.closeBatch()
			if g.stopped {
				return
			}
			i, left = 0, len(batch)
		}
	}
	g.seq, g.n, g.gridLeft = seq, i, left
}

// activeInstr emits one instruction inside a taint-handling burst.
func (g *Generator) activeInstr() {
	g.applyRetaints()
	if g.rng.unit() >= g.densityCut {
		g.cleanInstrs(1, g.burstCuts)
		return
	}
	// The run's sampling decision is the event's taint status: a
	// sampled-out run is walked (same addresses, same RNG draws as an
	// unsampled stream) but observed clean.
	tainted := g.runSampled(g.taintIdx / g.p.RunLen)
	addr, finishedRun := g.nextTaintAddr()
	g.seq++
	g.batch[g.n] = trace.Event{
		Seq: g.seq, PC: 0x1000 + uint32(g.seq%4096)*4,
		IsMem: true, Addr: addr, Size: 1, IsWrite: g.rng.unit() < writeCut, Tainted: tainted,
	}
	g.n++
	if g.gridLeft--; g.gridLeft == 0 {
		g.gridLeft = len(g.batch)
		g.closeBatch()
	}
	// Churn: once the cursor moves past a run, the workload may overwrite
	// the whole run with clean data (the event above observed the
	// pre-write state) and re-taint it later in the phase. Clearing
	// complete runs is what retires whole taint domains and gives the
	// clear-bit scan real work (§5.1.4).
	if finishedRun >= 0 && g.p.ChurnProb > 0 && g.rng.unit() < g.churnCut {
		// The event above observed the pre-write state: drain it before
		// clearing.
		g.closeBatch()
		g.setRunTaint(finishedRun*g.p.RunLen, g.p.RunLen, shadow.TagClean)
		r := retaint{idx: finishedRun * g.p.RunLen, n: g.p.RunLen, due: g.seq + 64}
		if g.rng.unit() < halfCut {
			// The buffer is reused for tainted data shortly.
			g.pending = append(g.pending, r)
		} else {
			// The buffer is released: it stays clean. Without the
			// clear-bit scan these domains would remain marked forever —
			// the staleness the §5.1.4 machinery exists to retire.
			g.freed = append(g.freed, r)
		}
	}
}

// Stop makes RunBatches return at the next event boundary, delivering
// nothing more. It exists for cancellation: the engine's driver calls it
// from inside deliver when the run's context is canceled. A stopped
// generator must not be run again — the interrupted epoch schedule is
// abandoned, not resumable.
func (g *Generator) Stop() { g.stopped = true }

// Stopped reports whether Stop has been called.
func (g *Generator) Stopped() bool { return g.stopped }

// Run generates n events into sink, one at a time. Repeated calls continue
// the stream.
func (g *Generator) Run(n uint64, sink trace.Sink) {
	g.RunBatches(n, make([]trace.Event, 1), func(evs []trace.Event) { sink.Consume(evs[0]) })
}

// RunBatches generates n events, writing each in place into buf and handing
// deliver the filled prefix as one batch. A batch closes at every multiple
// of len(buf) in the stream sequence (Seq), before every shadow mutation —
// so each event is consumed against the state it was generated under — and
// at the end of the call, unless the generator was stopped. Mutations add
// batch boundaries but never move the grid. deliver must not retain the
// slice past its return; buf is reused for the next batch. Repeated calls
// continue the stream.
func (g *Generator) RunBatches(n uint64, buf []trace.Event, deliver func([]trace.Event)) {
	if len(buf) == 0 {
		panic("workload: RunBatches with an empty buffer")
	}
	g.batch, g.deliver, g.n = buf, deliver, 0
	g.gridLeft = len(buf) - int(g.seq%uint64(len(buf)))
	g.run(n)
	g.closeBatch()
	g.batch, g.deliver = nil, nil
}

// run generates n events into the current batch.
func (g *Generator) run(n uint64) {
	var emitted uint64
	r := g.p.ActiveShare / (1 - g.p.ActiveShare)
	for emitted < n {
		// Pick the epoch class furthest behind its share; before anything
		// has been emitted, start with the shortest class so taint-handling
		// bursts appear early even in short runs.
		best, bestLag := 0, 0.0
		var total float64
		for _, e := range g.emittedClean {
			total += e
		}
		if total == 0 {
			for i, c := range g.p.Epochs {
				if c.Share > 0 && c.Len < g.p.Epochs[best].Len {
					best = i
				}
			}
		} else {
			for i, c := range g.p.Epochs {
				if c.Share == 0 {
					continue
				}
				if lag := c.Share*total - g.emittedClean[i]; lag > bestLag {
					best, bestLag = i, lag
				}
			}
		}
		cls := g.p.Epochs[best]

		cleanLen := cls.Len
		if emitted+cleanLen > n {
			cleanLen = n - emitted
		}
		g.cleanInstrs(cleanLen, g.cleanCuts)
		if g.stopped {
			return
		}
		emitted += cleanLen
		g.emittedClean[best] += float64(cleanLen)

		g.activeCarry += float64(cls.Len) * r
		burst := uint64(g.activeCarry)
		g.activeCarry -= float64(burst)
		if emitted+burst > n {
			burst = n - emitted
		}
		for i := uint64(0); i < burst; i++ {
			if g.stopped {
				return
			}
			g.activeInstr()
		}
		emitted += burst
		// Half the time the phase finishes its buffer reuse before control
		// leaves the burst; the other half leaves clear bits outstanding
		// for the S-LATCH timeout scan to examine.
		if burst > 0 && len(g.pending) > 0 && g.rng.unit() < halfCut {
			g.flushRetaints()
		}
	}
	g.flushRetaints()
}
