// Concurrent P-LATCH ("cplatch"): the §5.2 two-core design made real. The
// analytic backend in this package models the commit-log FIFO and the
// monitor core with a queue simulation evaluated after the fact; this file
// runs them. The monitored core (the engine's driver loop, calling Step)
// filters the commit stream through the shared LATCH policy and publishes
// every flagged instruction into one lock-free SPSC ring (internal/ring);
// one monitor goroutine drains the ring and performs the DIFT monitor's
// bookkeeping: the coarse taint domain set, a digest of the flagged-event
// log, and the virtual-time FIFO occupancy/stall measurement the analytic
// model predicts.
//
// Determinism contract: everything in the result except the Ring field is
// a pure function of the event stream. The ring preserves commit order, so
// the monitor sees exactly the serial sequence of flagged events. The Ring
// field alone reports real, scheduling-dependent ring behavior and is
// excluded from result columns and from every determinism assertion.
package platch

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"

	"latch/internal/engine"
	"latch/internal/ring"
	"latch/internal/telemetry"
	"latch/internal/trace"
)

func init() {
	engine.Register(engine.Scheme{
		Name:  "cplatch",
		Title: "Concurrent P-LATCH: lock-free two-core DIFT (§5.2 realized)",
		New:   func() engine.Backend { return NewConcurrent(DefaultConfig()) },
	})
}

// monEvent is the commit-log record published through the ring: the
// flagged instruction plus everything the monitor needs, precomputed on
// the producer side so the monitor never touches the shared Session state.
type monEvent struct {
	seq     uint64
	pc      uint32
	addr    uint32
	domain  uint32
	tainted bool
	pending bool // enqueued by the pending-update FIFO, not the coarse state
}

// vqueue measures the monitor's FIFO in virtual time: arrivals at producer
// commit-sequence timestamps, service at a fixed rate, stalls when the
// bounded queue fills — the same discrete model the analytic queue steps
// once per instruction, executed once per arrival by the monitor. Virtual
// time makes the measurement deterministic: it depends on the arrival
// sequence, never on goroutine scheduling.
type vqueue struct {
	depth   int
	service float64
	obs     telemetry.Observer

	ring        []float64 // completion times of in-flight entries
	head, count int
	push        float64 // accumulated producer stall delay
	srvEnd      float64
}

func newVQueue(depth int, service float64, obs telemetry.Observer) *vqueue {
	return &vqueue{depth: depth, service: service, obs: obs, ring: make([]float64, depth)}
}

// arrive admits the entry committed at sequence number seq (1-based
// producer clock), stalling the virtual producer if the queue is full.
func (q *vqueue) arrive(seq uint64) {
	now := float64(seq) + q.push
	for q.count > 0 && q.ring[q.head] <= now {
		q.head = (q.head + 1) % q.depth
		q.count--
	}
	if q.count == q.depth {
		if q.obs != nil {
			q.obs.QueueStall(q.count)
		}
		q.push += q.ring[q.head] - now
		now = q.ring[q.head]
		q.head = (q.head + 1) % q.depth
		q.count--
	}
	start := q.srvEnd
	if start < now {
		start = now
	}
	q.srvEnd = start + q.service
	q.ring[(q.head+q.count)%q.depth] = q.srvEnd
	q.count++
}

// overhead returns the fractional slowdown over native execution the queue
// imposed on a totalEvents-instruction run: producer stall time plus any
// monitor lag past the last commit.
func (q *vqueue) overhead(totalEvents uint64) float64 {
	if totalEvents == 0 {
		return 0
	}
	total := float64(totalEvents) + q.push
	if q.srvEnd > total {
		total = q.srvEnd
	}
	return total/float64(totalEvents) - 1
}

// monitor is the §5.2 monitor core: it drains the ring and keeps the coarse
// taint domain set, an FNV-1a digest of the flagged log, and the two
// virtual-time queue measurements. Everything here is owned by the monitor
// goroutine until Finish joins it.
type monitor struct {
	ring    *ring.SPSC[monEvent]
	done    chan struct{}
	flagged uint64
	digest  hash.Hash64
	domains map[uint32]struct{}
	qSimple *vqueue
	qOpt    *vqueue
}

// run is the monitor loop: drain the ring in batches until the producer
// closes it, hashing each flagged record as it is popped.
func (m *monitor) run() {
	defer close(m.done)
	buf := make([]monEvent, ring.DefaultBatch)
	var rec [21]byte
	for {
		n := m.ring.PopBatch(buf)
		if n == 0 {
			return
		}
		for _, ev := range buf[:n] {
			m.flagged++
			if ev.tainted {
				m.domains[ev.domain] = struct{}{}
			}
			binary.LittleEndian.PutUint64(rec[0:], ev.seq)
			binary.LittleEndian.PutUint32(rec[8:], ev.pc)
			binary.LittleEndian.PutUint32(rec[12:], ev.addr)
			binary.LittleEndian.PutUint32(rec[16:], ev.domain)
			rec[20] = 0
			if ev.pending {
				rec[20] = 1
			}
			m.digest.Write(rec[:])
			m.qSimple.arrive(ev.seq)
			m.qOpt.arrive(ev.seq)
		}
	}
}

// ConcurrentResult is one benchmark's concurrent P-LATCH outcome. The
// embedded Result is the analytic backend's on the same stream: the window
// model is computed by the same code, and the queue overheads come from the
// monitor's virtual-time queues, which agree with the analytic queues to
// float tolerance.
type ConcurrentResult struct {
	Result

	// Monitor state (deterministic).
	FlaggedEvents    uint64
	FlagDigest       uint64 // FNV-1a over the commit-ordered flagged log
	MonitorDomains   int    // taint domains the monitor marked
	MonitorTaintHash uint64 // FNV-1a over the sorted domain set

	// Ring reports real, scheduling-dependent pipeline behavior.
	Ring ring.Stats
}

// Columns implements engine.Result. Only deterministic fields appear: the
// registry-driven tables must be byte-identical run to run. The shards
// column is the monitor count, always 1.
func (r ConcurrentResult) Columns() []engine.Column {
	return []engine.Column{
		{Label: "shards", Value: 1},
		{Label: "active window frac", Value: r.ActiveWindowFraction},
		{Label: "overhead simple", Value: r.OverheadSimple},
		{Label: "overhead optimized", Value: r.OverheadOptimized},
		{Label: "enqueued frac", Value: r.EnqueuedFraction},
		{Label: "queue overhead simple", Value: r.QueueOverheadSimple},
	}
}

// cbackend is the concurrent backend: the producer-side policy state plus
// the ring to the monitor goroutine.
type cbackend struct {
	producer
	mon *monitor

	finished bool
	res      ConcurrentResult
}

// NewConcurrent builds an unstarted concurrent backend. The returned value
// serves exactly one run, like every engine.Backend.
func NewConcurrent(cfg Config) *cbackend {
	return &cbackend{producer: producer{cfg: cfg}}
}

var (
	_ engine.Backend = (*cbackend)(nil)
	_ engine.Sharded = (*cbackend)(nil)
)

// Name implements engine.Backend.
func (b *cbackend) Name() string { return "cplatch" }

// SetShards implements engine.Sharded. The monitor is one goroutine, as
// §5.2 draws it, so 1 is the only count accepted; the method stays for
// callers that still name the count through engine.Sharded.
func (b *cbackend) SetShards(n int) error {
	if n != 1 {
		return fmt.Errorf("cplatch: one monitor, cannot run %d shards", n)
	}
	return nil
}

// Init implements engine.Backend: reset the producer state, then start the
// monitor goroutine.
func (b *cbackend) Init(s *engine.Session) error {
	if b.mon != nil {
		return fmt.Errorf("cplatch: backend reused; one instance serves one run")
	}
	b.init()
	b.mon = &monitor{
		ring:    ring.MustNew[monEvent](ring.DefaultCapacity, ring.DefaultBatch),
		done:    make(chan struct{}),
		digest:  fnv.New64a(),
		domains: make(map[uint32]struct{}),
		qSimple: newVQueue(b.cfg.QueueDepth, serviceCycles(simpleLBAOverhead), s.Observer),
		qOpt:    newVQueue(b.cfg.QueueDepth, serviceCycles(optimizedLBAOverhead), s.Observer),
	}
	go b.mon.run()
	return nil
}

// Step implements engine.Backend: run the shared enqueue policy on the
// monitored core, then publish flagged instructions to the monitor's ring.
// Steady-state cost on the producer side is the coarse check plus one ring
// slot write per flagged event — no allocation, no locks.
func (b *cbackend) Step(s *engine.Session, ev trace.Event) {
	enq, viaPending := b.filt.decide(s, ev)
	b.win.step(ev.Tainted)
	if !enq {
		return
	}
	b.mon.ring.Push(monEvent{
		seq:     s.Events,
		pc:      ev.PC,
		addr:    ev.Addr,
		domain:  s.Shadow.DomainIndex(ev.Addr),
		tainted: ev.Tainted,
		pending: viaPending,
	})
}

// StepBatch implements engine.BatchBackend. Monitor sequence numbers come
// from s.Events, so the cursor advances before each event.
func (b *cbackend) StepBatch(s *engine.Session, evs []trace.Event) {
	for i := range evs {
		s.Events++
		b.Step(s, evs[i])
	}
}

// Finish implements engine.Backend: close the ring, join the monitor, and
// read its state. Finish is idempotent — call sites that finalize
// defensively (the differential checker finalizes from a deferred call)
// get the memoized result.
func (b *cbackend) Finish(s *engine.Session) engine.Result {
	if b.finished {
		return b.res
	}
	b.finished = true
	m := b.mon
	m.ring.Close()
	<-m.done

	b.res = ConcurrentResult{
		Result:        b.result(s),
		FlaggedEvents: m.flagged,
		FlagDigest:    m.digest.Sum64(),
		Ring:          m.ring.Stats(),
	}
	b.res.QueueOverheadSimple = m.qSimple.overhead(s.Events)
	b.res.QueueOverheadOptimized = m.qOpt.overhead(s.Events)

	domains := make([]uint32, 0, len(m.domains))
	for d := range m.domains {
		domains = append(domains, d)
	}
	sort.Slice(domains, func(i, j int) bool { return domains[i] < domains[j] })
	dh := fnv.New64a()
	var rec [4]byte
	for _, d := range domains {
		binary.LittleEndian.PutUint32(rec[:], d)
		dh.Write(rec[:])
	}
	b.res.MonitorDomains = len(domains)
	b.res.MonitorTaintHash = dh.Sum64()
	return b.res
}
