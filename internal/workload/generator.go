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
type Generator struct {
	p   Profile
	rng *rng
	sh  *shadow.Shadow

	// Selective tracing: when sampled is set (a SampleFraction strictly
	// between 0 and 1), whole taint runs are deterministically sampled
	// in or out by the policy sampler (KindLayout, ordinal = global run
	// index). Sampled-out runs stay clean in the shadow and their events
	// are emitted untainted; everything else about the stream — the
	// addresses, the epoch schedule, the RNG draws — is unchanged, so
	// the same profile seed produces the same access pattern at every
	// fraction.
	smp     policy.Sampler
	sampled bool

	// Layout: the footprint occupies contiguous pages starting at base,
	// with the tainted block in the middle (taintStart..taintStart+tainted).
	base       uint32 // first page number of the footprint
	taintStart int    // index of first tainted page within the footprint
	period     int    // RunLen+GapLen
	tbpp       int    // tainted bytes per tainted page
	gbpp       int    // gap (clean) bytes per tainted page

	density float64 // P(burst instruction touches a tainted byte)

	// Cursors.
	cleanPage, cleanOff int
	taintIdx            int // global tainted-byte index
	reuseLeft           int
	mixIdx              int // global gap-byte index

	hotWords [16]uint32

	// pending holds churned runs awaiting re-taint; freed holds runs whose
	// buffers were released for clean reuse and stay clean until the taint
	// cursor wraps (when the layout is re-materialized for consistency).
	pending []retaint
	freed   []retaint

	// Epoch schedule state.
	emittedClean []float64
	activeCarry  float64
	seq          uint64

	// stopped is set by Stop: RunBatches returns at the next event
	// boundary and delivers nothing more. Once stopped the stream must not
	// be continued — the abandoned epoch schedule state would skew
	// subsequent epochs.
	stopped bool

	// The current RunBatches call's batch: events are written in place into
	// batch[:n] and handed to deliver. gridLeft counts the events until the
	// next multiple of len(batch) in the stream sequence, where a batch
	// always closes.
	batch    []trace.Event
	n        int
	gridLeft int
	deliver  func([]trace.Event)

	// one is Run's single-event batch.
	one [1]trace.Event
}

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

// NewGeneratorOn builds a generator for profile p over an existing shadow —
// typically one already watched by a LATCH module, so the module's coarse
// state is built up by the layout materialization exactly as hardware would
// observe the taint being written. The shadow must be empty.
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
		rng:          newRNG(p.Seed),
		sh:           sh,
		base:         basePage,
		taintStart:   (p.PagesAccessed - p.PagesTainted) / 2,
		period:       p.RunLen + p.GapLen,
		density:      p.TaintPct / 100 / p.ActiveShare,
		reuseLeft:    p.TaintReuse,
		emittedClean: make([]float64, len(p.Epochs)),
		smp:          policy.NewSampler(spl),
		sampled:      spl.Enabled(),
	}
	if p.RunLen >= mem.PageSize {
		g.tbpp, g.gbpp = mem.PageSize, 0
	} else {
		full := mem.PageSize / g.period
		rem := mem.PageSize % g.period
		g.tbpp = full * p.RunLen
		if rem > p.RunLen {
			g.tbpp += p.RunLen
		} else {
			g.tbpp += rem
		}
		g.gbpp = mem.PageSize - g.tbpp
	}
	if g.gbpp == 0 && (p.CleanNearTaint > 0 || p.BurstNearTaint > 0) {
		return nil, fmt.Errorf("workload %s: near-taint accesses configured but layout has no clean bytes in tainted pages", p.Name)
	}
	g.materialize()
	// Hot words live at the start of the first (clean) footprint page.
	for i := range g.hotWords {
		g.hotWords[i] = g.pageAddr(g.cleanPageNumber(0)) + uint32(i*4)
	}
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
	return (g.base + uint32(pageIdx)) << mem.PageShift
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

// runSampled reports whether the given global taint run is tainted under
// the selective-tracing spec. With sampling disabled every run is in.
func (g *Generator) runSampled(run int) bool {
	if !g.sampled {
		return true
	}
	return g.smp.Sample(policy.KindLayout, uint64(run))
}

// taintTag is the tag tainted-byte index i carries: the taint label when
// its run is sampled in, clean when sampled out.
func (g *Generator) taintTag(i int) shadow.Tag {
	if g.runSampled(i / g.p.RunLen) {
		return shadow.MustLabel(0)
	}
	return shadow.TagClean
}

// materialize writes the static taint layout into the shadow.
func (g *Generator) materialize() {
	if g.sampled {
		// Selective tracing: materialize run by run, skipping sampled-out
		// runs so they never enter the shadow (or the coarse state built
		// by its watchers).
		total := g.totalTaintBytes()
		for start := 0; start < total; start += g.p.RunLen {
			if !g.runSampled(start / g.p.RunLen) {
				continue
			}
			n := g.p.RunLen
			if start+n > total {
				n = total - start
			}
			g.setRunTaint(start, n, shadow.MustLabel(0))
		}
		return
	}
	tag := shadow.MustLabel(0)
	for pi := 0; pi < g.p.PagesTainted; pi++ {
		page := g.taintStart + pi
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
	if g.rng.Float64() < g.p.JumpProb {
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
	if g.rng.Float64() < g.p.NearTaintRandom {
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

// setRunTaint writes the taint status of one whole run.
func (g *Generator) setRunTaint(idx, n int, tag shadow.Tag) {
	for b := 0; b < n; b++ {
		g.sh.Set(g.taintAddr(idx+b), tag)
	}
}

// restoreRun re-asserts the materialized taint of [idx, idx+n) after a
// churn clear, byte by byte with each byte's own taintTag. The per-byte
// tag matters because a churned range that wraps past the end of the
// index space spills into run 0, whose sampling decision may differ.
// With sampling disabled this is exactly setRunTaint(idx, n, label 0).
func (g *Generator) restoreRun(idx, n int) {
	total := g.totalTaintBytes()
	for b := 0; b < n; b++ {
		i := (idx + b) % total
		g.sh.Set(g.taintAddr(i), g.taintTag(i))
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

// emit writes one event into the batch, closing the batch at the grid line.
func (g *Generator) emit(isMem bool, addr uint32, size uint8, tainted bool) {
	g.seq++
	ev := &g.batch[g.n]
	g.n++
	*ev = trace.Event{Seq: g.seq, PC: 0x1000 + uint32(g.seq%4096)*4, Tainted: tainted}
	if isMem {
		ev.IsMem = true
		ev.Addr = addr
		ev.Size = size
		ev.IsWrite = g.rng.Float64() < 0.3
	}
	if g.gridLeft--; g.gridLeft == 0 {
		g.gridLeft = len(g.batch)
		g.closeBatch()
	}
}

// cleanInstr emits one taint-free instruction; nearProb is the probability
// that a memory access wanders into the tainted block's clean bytes.
func (g *Generator) cleanInstr(nearProb float64) {
	if g.rng.Float64() >= g.p.MemFraction {
		g.emit(false, 0, 0, false)
		return
	}
	u := g.rng.Float64()
	switch {
	case u < nearProb:
		g.emit(true, g.nearTaintAddr(), 1, false)
	case u < nearProb+(1-nearProb)*g.p.HotFraction:
		g.emit(true, g.hotWords[g.rng.Intn(len(g.hotWords))], 4, false)
	default:
		g.emit(true, g.nextCleanAddr(), 4, false)
	}
}

// activeInstr emits one instruction inside a taint-handling burst.
func (g *Generator) activeInstr() {
	g.applyRetaints()
	if g.rng.Float64() < g.density {
		// The run's sampling decision is the event's taint status: a
		// sampled-out run is walked (same addresses, same RNG draws as an
		// unsampled stream) but observed clean.
		tainted := g.runSampled(g.taintIdx / g.p.RunLen)
		addr, finishedRun := g.nextTaintAddr()
		g.emit(true, addr, 1, tainted)
		// Churn: once the cursor moves past a run, the workload may
		// overwrite the whole run with clean data (the event above observed
		// the pre-write state) and re-taint it later in the phase. Clearing
		// complete runs is what retires whole taint domains and gives the
		// clear-bit scan real work (§5.1.4).
		if finishedRun >= 0 && g.p.ChurnProb > 0 && g.rng.Float64() < g.p.ChurnProb {
			// The event above observed the pre-write state: drain it before
			// clearing.
			g.closeBatch()
			g.setRunTaint(finishedRun*g.p.RunLen, g.p.RunLen, shadow.TagClean)
			r := retaint{idx: finishedRun * g.p.RunLen, n: g.p.RunLen, due: g.seq + 64}
			if g.rng.Float64() < 0.5 {
				// The buffer is reused for tainted data shortly.
				g.pending = append(g.pending, r)
			} else {
				// The buffer is released: it stays clean. Without the
				// clear-bit scan these domains would remain marked forever —
				// the staleness the §5.1.4 machinery exists to retire.
				g.freed = append(g.freed, r)
			}
		}
		return
	}
	g.cleanInstr(g.p.BurstNearTaint)
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
	g.RunBatches(n, g.one[:], func(evs []trace.Event) { sink.Consume(evs[0]) })
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
		for i := uint64(0); i < cleanLen; i++ {
			if g.stopped {
				return
			}
			g.cleanInstr(g.p.CleanNearTaint)
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
		if burst > 0 && len(g.pending) > 0 && g.rng.Float64() < 0.5 {
			g.flushRetaints()
		}
	}
	g.flushRetaints()
}
