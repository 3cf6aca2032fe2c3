// Package platch implements P-LATCH (§5.2): LATCH-filtered parallel software
// DIFT in the style of the Log-Based Architecture (LBA). A monitored core
// extracts committed instructions into a shared FIFO; a second core runs the
// DIFT analysis over the log. Without filtering, the queue saturates and the
// monitored core stalls at the monitor's service rate; with the LATCH module
// enqueueing only instructions the coarse taint state flags, the queue is
// empty for long stretches and both cores run freely.
//
// Two models are provided, matching the paper's methodology (§6.2):
//
//   - the analytical window model the paper uses for Figure 15: LBA's
//     reported overhead is charged only during 1000-instruction windows that
//     contain coarse-positive activity;
//
//   - a discrete queue simulation (producer / bounded FIFO / consumer) as a
//     finer-grained cross-check, stepped with the stream in O(QueueDepth)
//     memory; BaselineQueueOverhead runs the same simulation unfiltered and
//     reproduces the baseline LBA overheads from first principles.
//
// The scheme is an engine.Backend over the shared Session; this package
// contributes the filtering policy, the window accounting, and the queue
// models. It registers itself with the engine under the name "platch".
package platch

import (
	"context"

	"latch/internal/engine"
	"latch/internal/latch"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/workload"
)

func init() {
	engine.Register(engine.Scheme{
		Name:  "platch",
		Title: "P-LATCH: filtered two-core log-based DIFT (§5.2)",
		New:   func() engine.Backend { return &backend{producer: producer{cfg: DefaultConfig()}} },
	})
}

// Config parameterizes the P-LATCH evaluation.
type Config struct {
	Latch latch.Config

	// WindowInstrs is the activity-measurement granularity (1000 in §6.2).
	WindowInstrs uint64

	// SimpleLBAOverhead is the reported overhead of the baseline 2-core LBA
	// monitor (3.38x runtime => 2.38 overhead, [7] via §6.2).
	SimpleLBAOverhead float64

	// OptimizedLBAOverhead is the reported overhead of the hardware-
	// optimized LBA scheme (36% => 0.36).
	OptimizedLBAOverhead float64

	// QueueDepth is the FIFO capacity in log entries for the simulation.
	QueueDepth int

	// PendingEntries sizes the pending-update FIFO of §5.2: destination
	// operands of enqueued stores are treated as tainted until the monitor
	// has processed them and the coarse state is known current, preventing
	// false negatives from outstanding CTT updates. Zero disables the
	// structure.
	PendingEntries int

	// PendingLagInstrs is how many monitored-core instructions an entry
	// stays pending — the modeled monitor processing lag.
	PendingLagInstrs uint64

	Events uint64

	// Observer, when non-nil, receives the run's telemetry: the module's
	// check-path events plus a QueueStall per full-FIFO stall of the
	// LATCH-filtered queue simulations (BaselineQueueOverhead's unfiltered
	// runs are not reported — they would swamp the signal the paper cares
	// about). It must be safe for concurrent use when runs on several
	// goroutines share it, as the experiment harness's per-pass observers
	// are (telemetry.Metrics is). Observers never affect results.
	Observer telemetry.Observer
}

// DefaultConfig returns the paper's P-LATCH parameters.
func DefaultConfig() Config {
	lc := latch.DefaultConfig()
	lc.Clear = latch.EagerClear
	lc.BaselineTCache = false
	return Config{
		Latch:                lc,
		WindowInstrs:         1000,
		SimpleLBAOverhead:    2.38,
		OptimizedLBAOverhead: 0.36,
		QueueDepth:           1024,
		PendingEntries:       64,
		PendingLagInstrs:     200,
		Events:               2_000_000,
	}
}

// pendingFIFO is the small FIFO-like structure of §5.2: it tracks the
// destination taint domains of recently enqueued stores and reports them
// tainted until the monitor catches up. Overflow retires the oldest entry
// early (the monitored core would briefly stall to let the monitor drain;
// the conservative direction is handled by the queue itself).
type pendingFIFO struct {
	ring    []pendingEntry
	head    int
	count   int
	domains map[uint32]int // domain -> live entries
}

type pendingEntry struct {
	domain uint32
	expiry uint64
}

func newPendingFIFO(capacity int) *pendingFIFO {
	if capacity <= 0 {
		return nil
	}
	return &pendingFIFO{
		ring:    make([]pendingEntry, capacity),
		domains: make(map[uint32]int),
	}
}

// push records a store destination pending until the given time.
func (f *pendingFIFO) push(domain uint32, expiry uint64) {
	if f.count == len(f.ring) {
		f.pop()
	}
	f.ring[(f.head+f.count)%len(f.ring)] = pendingEntry{domain: domain, expiry: expiry}
	f.count++
	f.domains[domain]++
}

func (f *pendingFIFO) pop() {
	e := f.ring[f.head]
	f.head = (f.head + 1) % len(f.ring)
	f.count--
	if n := f.domains[e.domain]; n <= 1 {
		delete(f.domains, e.domain)
	} else {
		f.domains[e.domain] = n - 1
	}
}

// retire pops every entry whose expiry has passed.
func (f *pendingFIFO) retire(now uint64) {
	for f.count > 0 && f.ring[f.head].expiry <= now {
		f.pop()
	}
}

// pending reports whether the domain has an outstanding update.
func (f *pendingFIFO) pending(domain uint32) bool {
	_, ok := f.domains[domain]
	return ok
}

// filter is the monitored-core enqueue policy shared by the analytic and
// the concurrent P-LATCH backends: the coarse check decides whether a
// committed instruction enters the log FIFO, and the §5.2 pending-update
// FIFO keeps destinations of queued stores conservatively tainted until
// the monitor has caught up. Both backends route every event through this
// one implementation, so their enqueue decisions are identical by
// construction.
type filter struct {
	pend         *pendingFIFO
	lag          uint64
	positives    uint64
	pendingExtra uint64
}

func newFilter(entries int, lag uint64) *filter {
	return &filter{pend: newPendingFIFO(entries), lag: lag}
}

// decide consumes one stream event and reports whether it is enqueued to
// the monitor, and whether the pending-update FIFO alone caused the
// enqueue. The Session supplies the coarse module and the domain geometry;
// the caller must route every event through decide, in stream order.
func (f *filter) decide(s *engine.Session, ev trace.Event) (enq, viaPending bool) {
	if !ev.IsMem {
		return false, false
	}
	check := s.Module.CheckMem(ev.Addr, int(ev.Size))
	if check.CoarsePositive {
		enq = true
		f.positives++
	} else if f.pend != nil {
		// §5.2: destinations of queued stores stay conservatively tainted
		// until the monitor has processed them.
		f.pend.retire(s.Events)
		if f.pend.pending(s.Shadow.DomainIndex(ev.Addr)) {
			enq, viaPending = true, true
			f.positives++
			f.pendingExtra++
		}
	}
	if enq && ev.IsWrite && f.pend != nil {
		f.pend.push(s.Shadow.DomainIndex(ev.Addr), s.Events+f.lag)
	}
	return enq, viaPending
}

// windows is the §6.2 activity accounting shared by both P-LATCH backends:
// the fraction of WindowInstrs-sized windows containing at least one
// instruction that manipulates tainted data.
type windows struct {
	size   uint64
	total  uint64
	active uint64
	pos    uint64
	cur    bool
}

// step consumes one instruction's taint flag.
func (w *windows) step(tainted bool) {
	if tainted {
		w.cur = true
	}
	w.pos++
	if w.pos == w.size {
		w.total++
		if w.cur {
			w.active++
		}
		w.pos, w.cur = 0, false
	}
}

// fraction closes the trailing partial window and returns the active-window
// share. It must be called exactly once, after the last step.
func (w *windows) fraction() float64 {
	if w.pos > 0 {
		w.total++
		if w.cur {
			w.active++
		}
		w.pos, w.cur = 0, false
	}
	if w.total == 0 {
		return 0
	}
	return float64(w.active) / float64(w.total)
}

// producer is the monitored-core state both P-LATCH backends share: the
// enqueue filter and the window accounting. Each backend embeds it and adds
// its own queue model — the analytic one steps queues here, the concurrent
// one publishes flagged events to its monitor.
type producer struct {
	cfg  Config
	filt *filter
	win  windows
}

// Config implements engine.Backend.
func (p *producer) Config() latch.Config { return p.cfg.Latch }

// init resets the filter and the window accounting for a new run.
func (p *producer) init() {
	p.filt = newFilter(p.cfg.PendingEntries, p.cfg.PendingLagInstrs)
	p.win = windows{size: p.cfg.WindowInstrs}
}

// result closes the last window and evaluates the analytical window model.
// The queue overheads are left zero for the caller's queue model to fill.
func (p *producer) result(s *engine.Session) Result {
	f := p.win.fraction()
	// A zero-event stream has no positives to enqueue; avoid 0/0 = NaN,
	// which would poison downstream aggregation and break Result equality.
	enqueuedFrac := 0.0
	if s.Events > 0 {
		enqueuedFrac = float64(p.filt.positives) / float64(s.Events)
	}
	return Result{
		Benchmark:             s.Profile.Name,
		Events:                s.Events,
		ActiveWindowFraction:  f,
		OverheadSimple:        f * p.cfg.SimpleLBAOverhead,
		OverheadOptimized:     f * p.cfg.OptimizedLBAOverhead,
		EnqueuedFraction:      enqueuedFrac,
		PendingExtraPositives: p.filt.pendingExtra,
	}
}

// Result holds one benchmark's P-LATCH metrics (Figure 15).
type Result struct {
	Benchmark string
	Events    uint64

	// ActiveWindowFraction is the share of 1000-instruction windows
	// containing at least one coarse-positive check.
	ActiveWindowFraction float64

	// Analytical overheads: LBA costs localized to active windows.
	OverheadSimple    float64
	OverheadOptimized float64

	// Queue-simulation overheads (cross-check / ablation). The unfiltered
	// baselines come from BaselineQueueOverhead.
	QueueOverheadSimple    float64
	QueueOverheadOptimized float64

	EnqueuedFraction float64 // share of instructions enqueued under filtering

	// PendingExtraPositives counts enqueues caused solely by the pending-
	// update FIFO (the paper predicts these are rare thanks to taint
	// locality, §5.2).
	PendingExtraPositives uint64
}

// BenchmarkName implements engine.Result.
func (r Result) BenchmarkName() string { return r.Benchmark }

// EventCount implements engine.Result.
func (r Result) EventCount() uint64 { return r.Events }

// CheckCount implements engine.Result. P-LATCH reports queue metrics, not
// check counts.
func (r Result) CheckCount() uint64 { return 0 }

// Columns implements engine.Result.
func (r Result) Columns() []engine.Column {
	return []engine.Column{
		{Label: "active window frac", Value: r.ActiveWindowFraction},
		{Label: "overhead simple", Value: r.OverheadSimple},
		{Label: "overhead optimized", Value: r.OverheadOptimized},
		{Label: "enqueued frac", Value: r.EnqueuedFraction},
	}
}

// queue models a producer at 1 instruction/cycle feeding a bounded FIFO
// drained by a consumer at service cycles per entry, one committed
// instruction per step. Each full-queue stall is reported (with the queue
// occupancy, always the full depth) through obs when non-nil.
type queue struct {
	ring        []float64 // completion times of in-flight entries
	head, count int
	service     float64
	now         float64 // producer clock
	srvEnd      float64 // consumer's last completion time
	steps       uint64
	obs         telemetry.Observer
}

func newQueue(depth int, service float64, obs telemetry.Observer) queue {
	return queue{ring: make([]float64, depth), service: service, obs: obs}
}

// step advances the producer by one instruction, enqueueing it when enq.
func (q *queue) step(enq bool) {
	q.steps++
	q.now++
	if !enq {
		return
	}
	depth := len(q.ring)
	// Retire completed entries.
	for q.count > 0 && q.ring[q.head] <= q.now {
		q.head = (q.head + 1) % depth
		q.count--
	}
	if q.count == depth {
		// Stall until the oldest entry completes.
		if q.obs != nil {
			q.obs.QueueStall(q.count)
		}
		q.now = q.ring[q.head]
		q.head = (q.head + 1) % depth
		q.count--
	}
	start := q.srvEnd
	if start < q.now {
		start = q.now
	}
	q.srvEnd = start + q.service
	q.ring[(q.head+q.count)%depth] = q.srvEnd
	q.count++
}

// overhead returns the fractional overhead over native execution of the
// steps so far caused by full-queue stalls. The monitored program also
// cannot complete before the monitor drains the log (the paper's LBA
// semantics: analysis lags execution).
func (q *queue) overhead() float64 {
	if q.steps == 0 {
		return 0
	}
	total := q.now
	if q.srvEnd > total {
		total = q.srvEnd
	}
	return total/float64(q.steps) - 1
}

// serviceCycles derives the monitor's per-entry service time from a
// reported LBA overhead: an overhead of k means ~1+k cycles of monitor work
// per monitored instruction when everything is enqueued.
func serviceCycles(lbaOverhead float64) float64 { return 1 + lbaOverhead }

// BaselineQueueOverhead runs the queue simulation unfiltered — every one of
// events instructions enqueued, as under plain LBA — at cfg's queue depth
// and both reported LBA service rates.
func BaselineQueueOverhead(events uint64, cfg Config) (simple, optimized float64) {
	sq := newQueue(cfg.QueueDepth, serviceCycles(cfg.SimpleLBAOverhead), nil)
	oq := newQueue(cfg.QueueDepth, serviceCycles(cfg.OptimizedLBAOverhead), nil)
	for i := uint64(0); i < events; i++ {
		sq.step(true)
		oq.step(true)
	}
	return sq.overhead(), oq.overhead()
}

// backend is the P-LATCH per-event policy: coarse filtering into the log,
// window-activity accounting, the pending-update FIFO, and the two
// LATCH-filtered queue simulations.
type backend struct {
	producer
	queueSimple    queue
	queueOptimized queue
}

// Name implements engine.Backend.
func (b *backend) Name() string { return "platch" }

// Init implements engine.Backend.
func (b *backend) Init(s *engine.Session) error {
	b.init()
	b.queueSimple = newQueue(b.cfg.QueueDepth, serviceCycles(b.cfg.SimpleLBAOverhead), s.Observer)
	b.queueOptimized = newQueue(b.cfg.QueueDepth, serviceCycles(b.cfg.OptimizedLBAOverhead), s.Observer)
	return nil
}

// Step implements engine.Backend. P-LATCH charges no check cycles on the
// monitored core: the cost model is the queue.
func (b *backend) Step(s *engine.Session, ev trace.Event) {
	enq, _ := b.filt.decide(s, ev)
	// The analytic model localizes LBA overheads to "periods of active
	// propagation" (§6.2): windows in which taint is actually
	// manipulated. Coarse false positives still enter the queue (enq)
	// but do not by themselves make a window an active-propagation one.
	b.win.step(ev.Tainted)
	b.queueSimple.step(enq)
	b.queueOptimized.step(enq)
}

// StepBatch implements engine.BatchBackend. The pending-window filter keys
// its lag arithmetic off s.Events, so the cursor advances before each event.
func (b *backend) StepBatch(s *engine.Session, evs []trace.Event) {
	for i := range evs {
		s.Events++
		b.Step(s, evs[i])
	}
}

// Finish implements engine.Backend: close the last window, then evaluate
// the analytical window model and read the queue simulations.
func (b *backend) Finish(s *engine.Session) engine.Result {
	res := b.result(s)
	res.QueueOverheadSimple = b.queueSimple.overhead()
	res.QueueOverheadOptimized = b.queueOptimized.overhead()
	return res
}

// Run evaluates one benchmark under P-LATCH.
func Run(p workload.Profile, cfg Config) (Result, error) {
	res, err := engine.RunProfile(context.Background(), &backend{producer: producer{cfg: cfg}}, p,
		engine.RunOptions{Events: cfg.Events, Observer: cfg.Observer})
	if err != nil {
		return Result{}, err
	}
	return res.(Result), nil
}
