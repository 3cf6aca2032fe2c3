package main

import (
	"time"

	"latch"
	"latch/internal/dift"
	"latch/internal/isa"
	"latch/internal/shadow"
	"latch/internal/vm"
	"latch/internal/workload"
)

// traceEvery is the tracker-call sampling period: one call in traceEvery is
// timed, so the clock reads stay a small share of a ~20 ns instruction.
const traceEvery = 64

// tracedTracker forwards every vm.FastTracker call to the DIFT engine,
// counts it, and times one call in traceEvery as a span inside the run's
// span. Being a FastTracker itself, it keeps the VM's fast loop enabled.
type tracedTracker struct {
	inner vm.FastTracker
	tr    *tracer
	run   int
	op    int64

	calls, timed uint64
	timedDur     time.Duration
}

var _ vm.FastTracker = (*tracedTracker)(nil)

// sample counts a call and opens a span for every traceEvery-th; it
// returns -1 for the others.
func (t *tracedTracker) sample(name string) int {
	t.calls++
	if t.calls%traceEvery != 0 {
		return -1
	}
	return t.tr.begin(name, t.run, t.op)
}

func (t *tracedTracker) done(i int) {
	if i >= 0 {
		t.timed++
		t.timedDur += t.tr.end(i)
	}
}

func (t *tracedTracker) Touches(in isa.Instr, addr uint32) bool {
	i := t.sample("dift.Touches")
	v := t.inner.Touches(in, addr)
	t.done(i)
	return v
}

func (t *tracedTracker) Commit(pc uint32, in isa.Instr, addr uint32) error {
	i := t.sample("dift.Commit")
	err := t.inner.Commit(pc, in, addr)
	t.done(i)
	return err
}

func (t *tracedTracker) IndirectTarget(pc uint32, reg int, target uint32) error {
	i := t.sample("dift.IndirectTarget")
	err := t.inner.IndirectTarget(pc, reg, target)
	t.done(i)
	return err
}

func (t *tracedTracker) Input(addr uint32, n int, source dift.InputSource, conn int) {
	i := t.sample("dift.Input")
	t.inner.Input(addr, n, source, conn)
	t.done(i)
}

func (t *tracedTracker) Output(pc uint32, addr uint32, n int) error {
	i := t.sample("dift.Output")
	err := t.inner.Output(pc, addr, n)
	t.done(i)
	return err
}

func (t *tracedTracker) Accept() int {
	i := t.sample("dift.Accept")
	v := t.inner.Accept()
	t.done(i)
	return v
}

func (t *tracedTracker) SetTaintByte(addr uint32, tag shadow.Tag) {
	i := t.sample("dift.SetTaintByte")
	t.inner.SetTaintByte(addr, tag)
	t.done(i)
}

func (t *tracedTracker) SetRegTaintMask(mask uint32, tag shadow.Tag) {
	i := t.sample("dift.SetRegTaintMask")
	t.inner.SetRegTaintMask(mask, tag)
	t.done(i)
}

func (t *tracedTracker) EpochTaintFree() bool {
	i := t.sample("dift.EpochTaintFree")
	v := t.inner.EpochTaintFree()
	t.done(i)
	return v
}

func (t *tracedTracker) TaintResident() bool {
	i := t.sample("dift.TaintResident")
	v := t.inner.TaintResident()
	t.done(i)
	return v
}

func (t *tracedTracker) MemCoarseClean(addr uint32, size int) bool {
	i := t.sample("dift.MemCoarseClean")
	v := t.inner.MemCoarseClean(addr, size)
	t.done(i)
	return v
}

func (t *tracedTracker) CommitClean(n uint64) {
	i := t.sample("dift.CommitClean")
	t.inner.CommitClean(n)
	t.done(i)
}

// traceProgram runs every batch once untraced and once traced. The DIFT
// engine's time is the sampled per-call time times the call count; the
// VM's self time is the rest of System.Run.
func traceProgram(seed int64) (*report, error) {
	src, err := workload.ProgramSource("server")
	if err != nil {
		return nil, err
	}
	pol := programPolicy()
	batches := programLoad(seed)
	if err := warmProgram(pol, src, batches); err != nil {
		return nil, err
	}
	r := newReport()

	// Each batch runs untraced and then traced, back to back, so a drift in
	// machine speed affects both sides alike.
	tr := newTracer()
	var untraced, tracedWall, timedDur time.Duration
	var instr, calls, timed, fastEntries, fastExits, fastSteps, netBytes uint64
	var decHits, decMisses, tlcHits, tlcMisses uint64
	for b, reqs := range batches {
		r.attempted += 2
		sys, err := newSystem(pol, nil, reqs)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		plain, err := runSystem(sys, src, programMaxSteps)
		untraced += time.Since(start)
		if err != nil {
			r.failOps(2, "batch %d: %v", b, err)
			continue
		}
		instr += plain.steps

		m := latch.NewMetrics()
		if sys, err = newSystem(pol, nil, reqs, latch.WithObserver(m)); err != nil {
			return nil, err
		}
		tt := &tracedTracker{inner: sys.Engine, tr: tr, op: int64(b)}
		sys.Machine.SetTracker(tt)
		tt.run = tr.begin("latch.System.Run", -1, int64(b))
		o, err := runSystem(sys, src, programMaxSteps)
		tracedWall += tr.end(tt.run)
		if err != nil || o != plain {
			r.fail("traced batch %d: outcome %+v differs from the untraced run's (%v)", b, o, err)
			continue
		}
		calls += tt.calls
		timed += tt.timed
		timedDur += tt.timedDur
		e, x, s := sys.Machine.FastLoopStats()
		fastEntries, fastExits, fastSteps = fastEntries+e, fastExits+x, fastSteps+s
		h, mi := sys.Machine.DecodeCacheStats()
		decHits, decMisses = decHits+h, decMisses+mi
		h, mi = sys.Machine.Mem.TranslationCacheStats()
		tlcHits, tlcMisses = tlcHits+h, tlcMisses+mi
		netBytes += m.Snapshot().NetSourceBytes
	}
	r.setNamed("program_mips", "Minstr/s", float64(instr)/untraced.Seconds()/1e6)
	perCall := max(share(float64(timedDur), float64(timed))-float64(timerCost()), 0)
	diftTime := time.Duration(perCall * float64(calls))
	vmSelf := tracedWall - diftTime
	n := float64(instr)
	r.set("program.vm.self_ns_per_instr", "ns", float64(vmSelf)/n)
	r.set("program.dift.ns_per_call", "ns", perCall)
	r.set("program.dift.calls_per_instr", "count", float64(calls)/n)
	r.set("program.vm.fast_share", "ratio", float64(fastSteps)/n)
	r.set("program.vm.fast_entries", "count", float64(fastEntries))
	r.set("program.vm.fast_exits", "count", float64(fastExits))
	r.set("program.isa.decode_hit_rate", "ratio", share(float64(decHits), float64(decHits+decMisses)))
	r.set("program.mem.tlc_hit_rate", "ratio", share(float64(tlcHits), float64(tlcHits+tlcMisses)))
	r.set("program.dift.net_source_bytes", "bytes", float64(netBytes))
	r.setLayerSum("program", untraced, tracedWall, vmSelf+diftTime)

	// Set-up costs a user pays per program and per System.
	var asmUs, newMs []float64
	for k := 0; k < 200; k++ {
		i := tr.begin("isa.Assemble", -1, -1)
		_, err := latch.Assemble(src)
		asmUs = append(asmUs, float64(tr.end(i))/1e3)
		if err != nil {
			return nil, err
		}
	}
	for k := 0; k < 20; k++ {
		i := tr.begin("latch.New", -1, -1)
		_, err := latch.New(latch.WithPolicy(pol))
		newMs = append(newMs, ms(tr.end(i)))
		if err != nil {
			return nil, err
		}
	}
	r.set("program.isa.assemble_us", "us", median(asmUs))
	r.set("program.latch.system_new_ms", "ms", median(newMs))
	return r, tr.write("program")
}
