package platch

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"testing"

	"latch/internal/engine"
	"latch/internal/ring"
	"latch/internal/shadow"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/workload"
)

func concCfg() Config {
	cfg := DefaultConfig()
	cfg.Events = 200_000
	return cfg
}

// runConcurrent streams p through a fresh concurrent backend.
func runConcurrent(t *testing.T, p workload.Profile, cfg Config) ConcurrentResult {
	t.Helper()
	res, err := engine.RunProfile(context.Background(), NewConcurrent(cfg), p,
		engine.RunOptions{Events: cfg.Events, Observer: cfg.Observer})
	if err != nil {
		t.Fatal(err)
	}
	return res.(ConcurrentResult)
}

// oracleStream is one stream the concurrent backend is checked on. The
// stalling stream runs a 16-entry FIFO, so the virtual-time queue's stall
// path carries the queue overheads.
type oracleStream struct {
	name    string
	profile string
	depth   int
}

var oracleStreams = []oracleStream{
	{"gcc", "gcc", 0},
	{"apache", "apache", 0},
	{"mysql", "mysql", 0},
	{"astar-depth16", "astar", 16},
}

func (o oracleStream) cfg() Config {
	cfg := concCfg()
	if o.depth > 0 {
		cfg.QueueDepth = o.depth
	}
	return cfg
}

// serialMonitor is the test's independent monitor: a batch backend that
// runs the shared filter and keeps the flagged log and the tainted domain
// set in memory, with no ring, no goroutine and no queue model.
type serialMonitor struct {
	producer
	log     []byte
	domains map[uint32]bool
}

type serialResult struct {
	Result
	log     []byte
	domains map[uint32]bool
}

func (m *serialMonitor) Name() string { return "serial-monitor" }

func (m *serialMonitor) Init(*engine.Session) error {
	m.init()
	m.domains = map[uint32]bool{}
	return nil
}

func (m *serialMonitor) Step(s *engine.Session, ev trace.Event) {
	enq, viaPending := m.filt.decide(s, ev)
	m.win.step(ev.Tainted)
	if !enq {
		return
	}
	domain := s.Shadow.DomainIndex(ev.Addr)
	var rec [21]byte
	binary.LittleEndian.PutUint64(rec[0:], s.Events)
	binary.LittleEndian.PutUint32(rec[8:], ev.PC)
	binary.LittleEndian.PutUint32(rec[12:], ev.Addr)
	binary.LittleEndian.PutUint32(rec[16:], domain)
	if viaPending {
		rec[20] = 1
	}
	m.log = append(m.log, rec[:]...)
	if ev.Tainted {
		m.domains[domain] = true
	}
}

func (m *serialMonitor) StepBatch(s *engine.Session, evs []trace.Event) {
	for i := range evs {
		s.Events++
		m.Step(s, evs[i])
	}
}

func (m *serialMonitor) Finish(s *engine.Session) engine.Result {
	return serialResult{Result: m.result(s), log: m.log, domains: m.domains}
}

// digests returns the serial monitor's flagged-log digest and its domain-set
// digest, computed as the concurrent monitor documents them.
func (r serialResult) digests() (flag, taint uint64) {
	h := fnv.New64a()
	h.Write(r.log)
	doms := make([]uint32, 0, len(r.domains))
	for d := range r.domains {
		doms = append(doms, d)
	}
	sort.Slice(doms, func(i, j int) bool { return doms[i] < doms[j] })
	dh := fnv.New64a()
	for _, d := range doms {
		dh.Write(binary.LittleEndian.AppendUint32(nil, d))
	}
	return h.Sum64(), dh.Sum64()
}

// TestConcurrentMatchesSerialMonitor checks the concurrent monitor against
// the serial one: the same flagged log, byte for byte, and the same tainted
// domain set. The streams cover coarse false positives (flagged but
// untainted events), a stalling queue and, on a hand-built stream,
// pending-FIFO enqueues.
func TestConcurrentMatchesSerialMonitor(t *testing.T) {
	untaintedSeen := false
	for _, o := range oracleStreams {
		t.Run(o.name, func(t *testing.T) {
			p := workload.MustGet(o.profile)
			cfg := o.cfg()
			sres, err := engine.RunProfile(context.Background(), &serialMonitor{producer: producer{cfg: cfg}}, p,
				engine.RunOptions{Events: cfg.Events})
			if err != nil {
				t.Fatal(err)
			}
			want := sres.(serialResult)
			got := runConcurrent(t, p, cfg)

			flag, taint := want.digests()
			if n := uint64(len(want.log) / 21); got.FlaggedEvents != n {
				t.Errorf("flagged %d events, serial monitor %d", got.FlaggedEvents, n)
			}
			if got.FlagDigest != flag {
				t.Errorf("flag digest %x, serial monitor %x", got.FlagDigest, flag)
			}
			if got.MonitorDomains != len(want.domains) || got.MonitorTaintHash != taint {
				t.Errorf("monitor domains %d (hash %x), serial monitor %d (%x)",
					got.MonitorDomains, got.MonitorTaintHash, len(want.domains), taint)
			}
			if got.FlaggedEvents == 0 || got.MonitorDomains == 0 {
				t.Fatalf("vacuous stream: %d flagged events, %d domains", got.FlaggedEvents, got.MonitorDomains)
			}
			if got.Ring.Pushes != got.FlaggedEvents || got.Ring.Pops != got.FlaggedEvents {
				t.Errorf("ring pushed %d and popped %d of %d flagged events",
					got.Ring.Pushes, got.Ring.Pops, got.FlaggedEvents)
			}
			if got.FlaggedEvents > uint64(recordsInDomains(want.log, want.domains)) {
				untaintedSeen = true
			}
		})
	}
	t.Run("pending", func(t *testing.T) {
		want := pendingStream(t, &serialMonitor{producer: producer{cfg: DefaultConfig()}}).(serialResult)
		got := pendingStream(t, NewConcurrent(DefaultConfig())).(ConcurrentResult)
		if got.PendingExtraPositives == 0 {
			t.Fatal("no event was enqueued through the pending-update FIFO")
		}
		if flag, taint := want.digests(); got.FlagDigest != flag || got.MonitorTaintHash != taint {
			t.Errorf("digests %x/%x, serial monitor %x/%x", got.FlagDigest, got.MonitorTaintHash, flag, taint)
		}
	})
	if !untaintedSeen {
		t.Error("no stream flagged an event outside the tainted domains; domain marking is unchecked")
	}
}

// pendingStream steps b through a hand-built stream that enqueues through
// the pending-update FIFO, which the calibrated streams never do: stores
// into a tainted region, the region's taint cleared, then loads from it
// inside the pending lag.
func pendingStream(t *testing.T, b engine.BatchBackend) engine.Result {
	t.Helper()
	s, err := engine.NewSession(b.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Init(s); err != nil {
		t.Fatal(err)
	}
	const base, n = 0x10000, 64
	setTaint := func(tag shadow.Tag) {
		for a := uint32(base); a < base+n; a++ {
			s.Shadow.Set(a, tag)
		}
	}
	access := func(write, tainted bool) []trace.Event {
		evs := make([]trace.Event, 16)
		for i := range evs {
			evs[i] = trace.Event{PC: uint32(0x1000 + 4*i), Addr: base + uint32(4*i), Size: 4,
				IsMem: true, IsWrite: write, Tainted: tainted}
		}
		return evs
	}
	setTaint(shadow.MustLabel(0))
	b.StepBatch(s, access(true, true))
	setTaint(shadow.TagClean)
	b.StepBatch(s, access(false, false))
	return b.Finish(s)
}

// recordsInDomains counts the logged records whose domain is in domains.
func recordsInDomains(log []byte, domains map[uint32]bool) int {
	n := 0
	for i := 0; i+21 <= len(log); i += 21 {
		if domains[binary.LittleEndian.Uint32(log[i+16:])] {
			n++
		}
	}
	return n
}

// TestConcurrentMatchesAnalyticModel pins the producer-side contract: the
// concurrent backend's embedded Result equals the analytic backend's on the
// same stream field for field, except the two queue overheads, which the
// monitor measures incrementally and which agree to float tolerance.
func TestConcurrentMatchesAnalyticModel(t *testing.T) {
	const tol = 1e-9
	for _, o := range oracleStreams {
		t.Run(o.name, func(t *testing.T) {
			p := workload.MustGet(o.profile)
			cfg := o.cfg()
			want, err := Run(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := runConcurrent(t, p, cfg).Result
			if d := math.Abs(got.QueueOverheadSimple - want.QueueOverheadSimple); d > tol {
				t.Errorf("simple queue overhead %.12f, analytic %.12f (|Δ|=%g)",
					got.QueueOverheadSimple, want.QueueOverheadSimple, d)
			}
			if d := math.Abs(got.QueueOverheadOptimized - want.QueueOverheadOptimized); d > tol {
				t.Errorf("optimized queue overhead %.12f, analytic %.12f (|Δ|=%g)",
					got.QueueOverheadOptimized, want.QueueOverheadOptimized, d)
			}
			got.QueueOverheadSimple, got.QueueOverheadOptimized = 0, 0
			want.QueueOverheadSimple, want.QueueOverheadOptimized = 0, 0
			if got != want {
				t.Errorf("window model diverged from analytic platch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestConcurrentQueueOracleAgreement is the stall-path check: on a stream
// that overruns a 16-entry FIFO, the monitor's virtual-time queues report
// the same stalls as the analytic queues, and the stall delay they add
// matches the analytic overhead, which must be well clear of zero.
func TestConcurrentQueueOracleAgreement(t *testing.T) {
	p := workload.MustGet("astar")
	cfg := concCfg()
	cfg.QueueDepth = 16
	am, cm := telemetry.NewMetrics(), telemetry.NewMetrics()
	cfg.Observer = am
	oracle, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = cm
	got := runConcurrent(t, p, cfg)
	as, cs := am.Snapshot(), cm.Snapshot()
	if as.QueueStalls == 0 {
		t.Fatal("the analytic queue never stalled; the stall path is unexercised")
	}
	if cs.QueueStalls != as.QueueStalls || cs.QueueMaxDepth != as.QueueMaxDepth {
		t.Fatalf("monitor queues stalled %d times (max depth %d), analytic %d (%d)",
			cs.QueueStalls, cs.QueueMaxDepth, as.QueueStalls, as.QueueMaxDepth)
	}
	if oracle.QueueOverheadSimple < 0.01 {
		t.Fatalf("analytic simple queue overhead %.6f: the stalls add no delay", oracle.QueueOverheadSimple)
	}
	const tol = 1e-9
	if d := math.Abs(got.QueueOverheadSimple - oracle.QueueOverheadSimple); d > tol {
		t.Fatalf("simple queue overhead %.12f vs oracle %.12f (|Δ|=%g)",
			got.QueueOverheadSimple, oracle.QueueOverheadSimple, d)
	}
	if d := math.Abs(got.QueueOverheadOptimized - oracle.QueueOverheadOptimized); d > tol {
		t.Fatalf("optimized queue overhead %.12f vs oracle %.12f (|Δ|=%g)",
			got.QueueOverheadOptimized, oracle.QueueOverheadOptimized, d)
	}
}

// TestConcurrentDeterminismPin is the determinism check: repeated runs
// must produce identical results — flagged-log digest, monitor taint hash,
// window model, queue measurements — and identical session snapshots. Real
// ring statistics are scheduling-dependent and deliberately left out.
func TestConcurrentDeterminismPin(t *testing.T) {
	runs := 50
	if testing.Short() {
		runs = 8
	}
	p := workload.MustGet("apache")
	one := func() (ConcurrentResult, engine.Snapshot) {
		res, s, err := engine.RunProfileSession(context.Background(), NewConcurrent(DefaultConfig()), p,
			engine.RunOptions{Events: 60_000})
		if err != nil {
			t.Fatal(err)
		}
		cr := res.(ConcurrentResult)
		cr.Ring = ring.Stats{}
		return cr, s.Snapshot()
	}
	first, firstSnap := one()
	if first.FlaggedEvents == 0 {
		t.Fatal("no flagged events reached the monitor")
	}
	for run := 1; run < runs; run++ {
		got, snap := one()
		if got != first {
			t.Fatalf("run %d: result diverged:\n got %+v\nwant %+v", run, got, first)
		}
		if snap != firstSnap {
			t.Fatalf("run %d: session snapshot diverged:\n got %+v\nwant %+v", run, snap, firstSnap)
		}
	}
}

// TestConcurrentRegistryAndSharding covers the registry path: look up
// "cplatch", name the monitor count through engine.Sharded (only one
// monitor exists), run, and reject reuse.
func TestConcurrentRegistryAndSharding(t *testing.T) {
	sch, err := engine.Lookup("cplatch")
	if err != nil {
		t.Fatal(err)
	}
	b := sch.New()
	sharded, ok := b.(engine.Sharded)
	if !ok {
		t.Fatal("registered cplatch backend does not implement engine.Sharded")
	}
	for _, n := range []int{0, 2, 4, -1} {
		if err := sharded.SetShards(n); err == nil {
			t.Fatalf("SetShards(%d) accepted", n)
		}
	}
	if err := sharded.SetShards(1); err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunProfile(context.Background(), b, workload.MustGet("gcc"),
		engine.RunOptions{Events: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if cols := res.Columns(); cols[0] != (engine.Column{Label: "shards", Value: 1}) {
		t.Fatalf("first column %+v, want shards 1", cols[0])
	}
	if _, _, err := engine.RunProfileSession(context.Background(), b, workload.MustGet("gcc"),
		engine.RunOptions{Events: 1000}); err == nil {
		t.Fatal("backend reuse accepted")
	}
}

// TestConcurrentFinishIdempotent pins the defensive-finalization contract
// the differential checker relies on: a second Finish returns the memoized
// result instead of re-closing the ring or re-joining the monitor.
func TestConcurrentFinishIdempotent(t *testing.T) {
	b := NewConcurrent(DefaultConfig())
	res, s, err := engine.RunProfileSession(context.Background(), b, workload.MustGet("apache"),
		engine.RunOptions{Events: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	again := b.Finish(s).(ConcurrentResult)
	if !reflect.DeepEqual(res.(ConcurrentResult), again) {
		t.Fatal("second Finish returned a different result")
	}
}

// TestConcurrentZeroEvents: an empty stream yields a clean zero result, no
// NaNs, and a joined monitor.
func TestConcurrentZeroEvents(t *testing.T) {
	cfg := concCfg()
	cfg.Events = 0
	res := runConcurrent(t, workload.MustGet("gcc"), cfg)
	if res.FlaggedEvents != 0 || res.MonitorDomains != 0 {
		t.Fatalf("flagged %d events, %d domains on an empty stream", res.FlaggedEvents, res.MonitorDomains)
	}
	for _, c := range res.Columns() {
		if f, ok := c.Value.(float64); ok && math.IsNaN(f) {
			t.Fatalf("column %s is NaN", c.Label)
		}
	}
}
