// Package telemetry is the unified observability layer of the LATCH
// reproduction: a zero-allocation Observer interface that every simulation
// layer emits its runtime events through, and a snapshotable Metrics
// registry that aggregates those events into the counter vocabulary of the
// paper's evaluation (Figure 16's resolve levels, Table 6's miss events,
// Figure 14's mode transitions, §5.2's queue behavior).
//
// Design rules, enforced by benchmarks in internal/latch:
//
//   - every Observer method takes only scalar arguments, so an emission
//     never allocates;
//   - emitters hold the observer in a plain interface field and guard each
//     emission with a nil check, so the unobserved hot path costs exactly
//     one predictable branch;
//   - Metrics uses atomic counters, so one registry may be attached to any
//     number of concurrently running independent modules (the experiment
//     harness attaches one registry per simulation pass while jobs fan out
//     across the worker pool).
//
// The facade re-exports the types needed to attach or implement an
// observer; see latch.New and latch.WithObserver.
package telemetry

import "sync/atomic"

// Level identifies the element of the coarse-checking stack that resolved a
// memory check — the three categories of Figure 16. The values mirror
// internal/latch.ResolveLevel.
type Level uint8

// Resolve levels.
const (
	LevelTLB     Level = iota // filtered by the TLB page taint bits
	LevelCTC                  // filtered by the Coarse Taint Cache
	LevelPrecise              // coarse positive: precise taint cache consulted
	NumLevels
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelTLB:
		return "tlb"
	case LevelCTC:
		return "ctc"
	case LevelPrecise:
		return "t-cache"
	}
	return "unknown"
}

// Cache identifies a hardware structure of the checking stack.
type Cache uint8

// Caches.
const (
	CacheTLB Cache = iota
	CacheCTC
	CacheTCache
	// CacheDecode is the VM's decoded-instruction cache — the simulation
	// analog of a DBT code cache (Pin's, in the paper's software layer).
	CacheDecode
	// CacheMemTLC is the paged memory's one-entry page translation cache.
	CacheMemTLC
	NumCaches
)

// String names the cache.
func (c Cache) String() string {
	switch c {
	case CacheTLB:
		return "tlb"
	case CacheCTC:
		return "ctc"
	case CacheTCache:
		return "t-cache"
	case CacheDecode:
		return "decode"
	case CacheMemTLC:
		return "mem-tlc"
	}
	return "unknown"
}

// Mode is an execution layer of a two-mode integration (S-LATCH's hardware
// monitoring vs. instrumented software DIFT).
type Mode uint8

// Modes.
const (
	ModeHardware Mode = iota
	ModeSoftware
	NumModes
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeHardware {
		return "hardware"
	}
	return "software"
}

// ViolationKind classifies DIFT policy violations; values mirror
// internal/dift.ViolationKind.
type ViolationKind uint8

// Violation kinds.
const (
	ViolationControlFlow ViolationKind = iota
	ViolationLeak
	NumViolationKinds
)

// String names the kind.
func (k ViolationKind) String() string {
	if k == ViolationControlFlow {
		return "control-flow"
	}
	return "leak"
}

// Source identifies a taint input source; values mirror
// internal/dift.InputSource.
type Source uint8

// Sources.
const (
	SourceFile Source = iota
	SourceNet
	NumSources
)

// String names the source.
func (s Source) String() string {
	if s == SourceFile {
		return "file"
	}
	return "net"
}

// Observer receives the runtime events of the LATCH stack. Implementations
// must be cheap and must not retain references across calls; all arguments
// are scalars so emissions never allocate. An implementation attached to
// concurrently running modules must be safe for concurrent use (Metrics
// is).
//
// Observers are strictly passive: no emitter consults an observer's state,
// so attaching one can never change simulation results — the golden
// experiment tables are byte-identical with and without an observer.
type Observer interface {
	// CoarseCheck reports one resolved memory-operand taint check: the
	// stack element that resolved it (Figure 16), whether the coarse state
	// flagged the access, and whether that flag was a false positive.
	CoarseCheck(level Level, positive, falsePositive bool)

	// CacheMiss reports a miss in one of the checking stack's caches.
	CacheMiss(c Cache)

	// CacheBatch reports an accumulated batch of hits and misses for cache
	// c. Hot loops that cannot afford one interface call per cache access
	// (the VM's fetch path, the memory translation cache) count locally and
	// flush deltas through this method at run boundaries.
	CacheBatch(c Cache, hits, misses uint64)

	// CacheEviction reports a block displaced from a cache; pendingClears
	// is true when an evicted CTC line carried asserted clear bits (which
	// triggers the §5.1.4 scan).
	CacheEviction(c Cache, pendingClears bool)

	// EpochTransition reports a mode switch of a two-mode integration;
	// instret is the emitting layer's instruction (or event) count at the
	// switch.
	EpochTransition(to Mode, instret uint64)

	// FastLoop reports accumulated fast-loop activity of the VM's
	// taint-free interpreter path: epoch entries, exits back to the full
	// loop, and instructions retired while resident. Like CacheBatch, the
	// counts are deltas flushed at run boundaries, keeping the fast loop
	// itself free of interface calls.
	FastLoop(entries, exits, steps uint64)

	// QueueStall reports the monitored core stalling on a full log FIFO
	// (P-LATCH, §5.2); depth is the queue occupancy at the stall.
	QueueStall(depth int)

	// Violation reports a DIFT policy violation.
	Violation(kind ViolationKind, pc, addr uint32)

	// TaintSource reports n bytes of external data arriving from a taint
	// source (the syscall boundary, before policy filtering).
	TaintSource(src Source, n int)
}

// Metrics is the canonical Observer: a registry of atomic counters
// unifying the event streams of every instrumented package. It is safe to
// attach one Metrics to any number of concurrently running modules; the
// zero value is ready for use.
type Metrics struct {
	// resolved counts the coarse checks each level resolved, and in its
	// last slot those reported with an out-of-range level, so their sum
	// counts every check and a negative check costs one add.
	resolved       [NumLevels + 1]atomic.Uint64
	positives      atomic.Uint64
	falsePositives atomic.Uint64

	hits          [NumCaches]atomic.Uint64
	misses        [NumCaches]atomic.Uint64
	evictions     [NumCaches]atomic.Uint64
	pendingClears atomic.Uint64 // CTC evictions with clear bits outstanding

	transitions [NumModes]atomic.Uint64

	fastEntries atomic.Uint64
	fastExits   atomic.Uint64
	fastSteps   atomic.Uint64

	queueStalls   atomic.Uint64
	queueMaxDepth atomic.Uint64

	violations [NumViolationKinds]atomic.Uint64

	sourceBytes [NumSources]atomic.Uint64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

var _ Observer = (*Metrics)(nil)

// CoarseCheck implements Observer.
func (m *Metrics) CoarseCheck(level Level, positive, falsePositive bool) {
	m.resolved[min(level, NumLevels)].Add(1)
	if positive {
		m.positives.Add(1)
	}
	if falsePositive {
		m.falsePositives.Add(1)
	}
}

// CacheMiss implements Observer.
func (m *Metrics) CacheMiss(c Cache) {
	if c < NumCaches {
		m.misses[c].Add(1)
	}
}

// CacheBatch implements Observer.
func (m *Metrics) CacheBatch(c Cache, hits, misses uint64) {
	if c >= NumCaches {
		return
	}
	if hits > 0 {
		m.hits[c].Add(hits)
	}
	if misses > 0 {
		m.misses[c].Add(misses)
	}
}

// CacheEviction implements Observer.
func (m *Metrics) CacheEviction(c Cache, pendingClears bool) {
	if c < NumCaches {
		m.evictions[c].Add(1)
	}
	if pendingClears {
		m.pendingClears.Add(1)
	}
}

// EpochTransition implements Observer.
func (m *Metrics) EpochTransition(to Mode, instret uint64) {
	if to < NumModes {
		m.transitions[to].Add(1)
	}
}

// FastLoop implements Observer.
func (m *Metrics) FastLoop(entries, exits, steps uint64) {
	if entries > 0 {
		m.fastEntries.Add(entries)
	}
	if exits > 0 {
		m.fastExits.Add(exits)
	}
	if steps > 0 {
		m.fastSteps.Add(steps)
	}
}

// QueueStall implements Observer.
func (m *Metrics) QueueStall(depth int) {
	m.queueStalls.Add(1)
	d := uint64(depth)
	for {
		cur := m.queueMaxDepth.Load()
		if d <= cur || m.queueMaxDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

// Violation implements Observer.
func (m *Metrics) Violation(kind ViolationKind, pc, addr uint32) {
	if kind < NumViolationKinds {
		m.violations[kind].Add(1)
	}
}

// TaintSource implements Observer.
func (m *Metrics) TaintSource(src Source, n int) {
	if src < NumSources && n > 0 {
		m.sourceBytes[src].Add(uint64(n))
	}
}

// Snapshot is a consistent-enough copy of the registry (individual counters
// are read atomically; cross-counter invariants hold exactly once emitters
// are quiescent). The field set is the union of the counters previously
// scattered across the per-package Stats structs, in JSON-friendly form.
type Snapshot struct {
	CoarseChecks    uint64 `json:"coarse_checks"`
	ResolvedTLB     uint64 `json:"resolved_tlb"`
	ResolvedCTC     uint64 `json:"resolved_ctc"`
	ResolvedPrecise uint64 `json:"resolved_precise"`
	CoarsePositives uint64 `json:"coarse_positives"`
	FalsePositives  uint64 `json:"false_positives"`

	TLBMisses    uint64 `json:"tlb_misses"`
	CTCMisses    uint64 `json:"ctc_misses"`
	TCacheMisses uint64 `json:"tcache_misses"`

	DecodeCacheHits   uint64 `json:"decode_cache_hits"`
	DecodeCacheMisses uint64 `json:"decode_cache_misses"`
	MemTLCHits        uint64 `json:"mem_tlc_hits"`
	MemTLCMisses      uint64 `json:"mem_tlc_misses"`

	CTCEvictions             uint64 `json:"ctc_evictions"`
	CTCEvictionsPendingClear uint64 `json:"ctc_evictions_pending_clear"`

	SwitchesToSoftware uint64 `json:"switches_to_software"`
	SwitchesToHardware uint64 `json:"switches_to_hardware"`

	FastLoopEntries uint64 `json:"fast_loop_entries"`
	FastLoopExits   uint64 `json:"fast_loop_exits"`
	FastLoopSteps   uint64 `json:"fast_loop_steps"`

	QueueStalls   uint64 `json:"queue_stalls"`
	QueueMaxDepth uint64 `json:"queue_max_stall_depth"`

	ControlFlowViolations uint64 `json:"control_flow_violations"`
	LeakViolations        uint64 `json:"leak_violations"`

	FileSourceBytes uint64 `json:"file_source_bytes"`
	NetSourceBytes  uint64 `json:"net_source_bytes"`
}

// Snapshot reads the registry. Each resolve-level counter is read once and
// CoarseChecks is their sum, so within one snapshot it always equals the
// three resolved fields plus the checks reported with an out-of-range level.
func (m *Metrics) Snapshot() Snapshot {
	var resolved [NumLevels + 1]uint64
	var checks uint64
	for i := range m.resolved {
		resolved[i] = m.resolved[i].Load()
		checks += resolved[i]
	}
	return Snapshot{
		CoarseChecks:    checks,
		ResolvedTLB:     resolved[LevelTLB],
		ResolvedCTC:     resolved[LevelCTC],
		ResolvedPrecise: resolved[LevelPrecise],
		CoarsePositives: m.positives.Load(),
		FalsePositives:  m.falsePositives.Load(),

		TLBMisses:    m.misses[CacheTLB].Load(),
		CTCMisses:    m.misses[CacheCTC].Load(),
		TCacheMisses: m.misses[CacheTCache].Load(),

		DecodeCacheHits:   m.hits[CacheDecode].Load(),
		DecodeCacheMisses: m.misses[CacheDecode].Load(),
		MemTLCHits:        m.hits[CacheMemTLC].Load(),
		MemTLCMisses:      m.misses[CacheMemTLC].Load(),

		CTCEvictions:             m.evictions[CacheCTC].Load(),
		CTCEvictionsPendingClear: m.pendingClears.Load(),

		SwitchesToSoftware: m.transitions[ModeSoftware].Load(),
		SwitchesToHardware: m.transitions[ModeHardware].Load(),

		FastLoopEntries: m.fastEntries.Load(),
		FastLoopExits:   m.fastExits.Load(),
		FastLoopSteps:   m.fastSteps.Load(),

		QueueStalls:   m.queueStalls.Load(),
		QueueMaxDepth: m.queueMaxDepth.Load(),

		ControlFlowViolations: m.violations[ViolationControlFlow].Load(),
		LeakViolations:        m.violations[ViolationLeak].Load(),

		FileSourceBytes: m.sourceBytes[SourceFile].Load(),
		NetSourceBytes:  m.sourceBytes[SourceNet].Load(),
	}
}

// Reset zeroes every counter.
func (m *Metrics) Reset() { *m = Metrics{} }

// multi fans every event out to a fixed set of observers.
type multi []Observer

// Multi returns an observer forwarding each event to every non-nil
// observer in obs, in order. With zero or one live observer it returns nil
// or that observer directly, keeping the single-observer emission path
// free of indirection.
func Multi(obs ...Observer) Observer {
	live := make(multi, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// CoarseCheck implements Observer.
func (ms multi) CoarseCheck(level Level, positive, falsePositive bool) {
	for _, o := range ms {
		o.CoarseCheck(level, positive, falsePositive)
	}
}

// CacheMiss implements Observer.
func (ms multi) CacheMiss(c Cache) {
	for _, o := range ms {
		o.CacheMiss(c)
	}
}

// CacheBatch implements Observer.
func (ms multi) CacheBatch(c Cache, hits, misses uint64) {
	for _, o := range ms {
		o.CacheBatch(c, hits, misses)
	}
}

// CacheEviction implements Observer.
func (ms multi) CacheEviction(c Cache, pendingClears bool) {
	for _, o := range ms {
		o.CacheEviction(c, pendingClears)
	}
}

// EpochTransition implements Observer.
func (ms multi) EpochTransition(to Mode, instret uint64) {
	for _, o := range ms {
		o.EpochTransition(to, instret)
	}
}

// FastLoop implements Observer.
func (ms multi) FastLoop(entries, exits, steps uint64) {
	for _, o := range ms {
		o.FastLoop(entries, exits, steps)
	}
}

// QueueStall implements Observer.
func (ms multi) QueueStall(depth int) {
	for _, o := range ms {
		o.QueueStall(depth)
	}
}

// Violation implements Observer.
func (ms multi) Violation(kind ViolationKind, pc, addr uint32) {
	for _, o := range ms {
		o.Violation(kind, pc, addr)
	}
}

// TaintSource implements Observer.
func (ms multi) TaintSource(src Source, n int) {
	for _, o := range ms {
		o.TaintSource(src, n)
	}
}
