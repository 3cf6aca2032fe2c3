package engine

import (
	"fmt"
	"runtime"
	"sync"

	"latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/workload"
)

// Cycles is the unified cycle-category accounting shared by the
// integrations' cost models — the Figure 14 vocabulary.
type Cycles struct {
	Base    uint64 // native execution: one per instruction
	Libdft  uint64 // extra cycles from instrumented (software DIFT) execution
	Xfer    uint64 // context save/restore + code-cache loads
	FPCheck uint64 // exception-handler false-positive filtering
	CTCMiss uint64 // coarse-check miss penalties
	Scan    uint64 // clear-bit scans on return to hardware
}

// Total returns the modeled runtime.
func (c Cycles) Total() uint64 {
	return c.Base + c.Libdft + c.Xfer + c.FPCheck + c.CTCMiss + c.Scan
}

// Overhead returns the fractional overhead over native execution
// (Figure 13's y-axis; 0.6 means 60%).
func (c Cycles) Overhead() float64 {
	if c.Base == 0 {
		return 0
	}
	return float64(c.Total())/float64(c.Base) - 1
}

// Session owns everything one backend run shares with every other scheme:
// the latch module and its shadow taint state, the workload profile behind
// the stream, the telemetry wiring, the event cursor, the
// hardware/software epoch and trap state machine, and the unified cycle
// accounting. Backends keep only their policy-specific state. A session
// also owns the EventBatchSize-event buffer the stream of every run on it
// is delivered through, allocated by the first run that streams and kept
// across Recycle like the recorder.
type Session struct {
	Module   *latch.Module
	Shadow   *shadow.Shadow
	Profile  workload.Profile
	Observer telemetry.Observer

	// Policy is the validated taint policy of the current run; it travels
	// with the session (RunProfile installs it after validation, Recycle
	// clears it with the rest of the per-run state).
	Policy policy.Policy

	// Target is the requested stream length — a sizing hint for backends;
	// the stream may end earlier.
	Target uint64
	// Events counts consumed stream events (equivalently, committed
	// instructions); the driver advances it before each Step.
	Events uint64

	// Cycles accumulates the run's integer cycle categories. The Libdft
	// category accrues fractionally (per-instruction slowdown extras) and
	// is folded in by CycleReport.
	Cycles Cycles

	// Epoch/trap counters.
	HWInstrs   uint64 // instructions executed under hardware monitoring
	SWInstrs   uint64 // instructions executed under software DIFT
	Switches   uint64 // hardware -> software transfers
	Returns    uint64 // software -> hardware transfers
	Traps      uint64 // positives taken in hardware mode
	FalseTraps uint64 // traps dismissed by the precise filter

	mode         Mode
	sinceTaint   uint64
	swFrac       float64 // fractional extra-cycle accumulator (libdft)
	swExtra      float64 // per-instruction extra cycles in software mode
	costs        Costs
	codeCacheLat uint64
	missPenalty  uint64
	lastMisses   uint64

	// rec records layout materializations for the bulk load; built by the
	// first one and kept across Recycle with its buffer.
	rec *latch.Recorder
	// batch is the delivery buffer (see batchBuf).
	batch []trace.Event
}

// batchBuf returns the session's EventBatchSize-event delivery buffer,
// allocating it on first use.
func (s *Session) batchBuf() []trace.Event {
	if s.batch == nil {
		s.batch = make([]trace.Event, EventBatchSize)
	}
	return s.batch
}

// Recycle returns the session to the state NewSession(cfg) builds, whatever
// geometry it had before, reusing its storage. The module's coarse state is
// cleared first, over the pages the last run tainted, which the module
// finds through the shadow at the old domain size; then the shadow is reset
// onto its page free lists and regranulated to cfg.DomainSize, and the
// module is reconfigured for cfg (latch.Module.Reconfigure, the path New
// builds through). Every per-run counter, cycle category and the epoch state
// machine are zeroed, the miss penalty is taken from cfg, and the session
// keeps no reference to the last run's observer, policy or profile. An
// invalid cfg is reported before anything is touched.
func (s *Session) Recycle(cfg latch.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.Module.Reset()
	s.Shadow.Reset()
	if err := s.Shadow.Regranulate(cfg.DomainSize); err != nil {
		return err
	}
	if err := s.Module.Reconfigure(cfg); err != nil {
		return err
	}
	*s = Session{Module: s.Module, Shadow: s.Shadow, missPenalty: cfg.CTCMissPenalty, rec: s.rec, batch: s.batch}
	return nil
}

// watch registers the module's own watchers on the shadow, and no page
// watcher, so the module sees every aliased page's domains.
func (s *Session) watch() {
	onDomain, onByte := s.Module.Watchers()
	s.Shadow.OnDomainTransition(onDomain)
	s.Shadow.OnByteTransition(onByte)
	s.Shadow.OnPageAlias(nil)
}

// materialize is the one materialize step of every profile run: it writes
// p's layout, sampled by spl, into s's shadow and loads it into s's module
// and each of more, the run's other modules. While the generator writes the
// layout, the session's recorder stands in for the shadow's watchers, so no
// module sees a transition, and takes each page the layout aliases in one
// call; each module then takes the recorded steps in one bulk load
// (latch.Module.LoadTaint). The module's own watchers are registered
// again before it returns; a caller whose stream runs under other watchers
// registers them after it. A layout write that clears taint fails the run.
func (s *Session) materialize(p workload.Profile, spl policy.Sampling, more ...*latch.Module) (*workload.Generator, error) {
	if s.rec == nil {
		s.rec = latch.NewRecorder()
	}
	s.rec.Reset()
	s.Shadow.OnDomainTransition(s.rec.Watcher())
	s.Shadow.OnPageAlias(s.rec.PageWatcher())
	s.Shadow.OnByteTransition(nil)
	g, err := workload.NewSampledGeneratorOn(p, s.Shadow, spl)
	s.watch()
	if err != nil {
		return nil, err
	}
	steps, err := s.rec.Steps()
	if err != nil {
		return nil, fmt.Errorf("engine: materializing %s: %w", p.Name, err)
	}
	if err := s.Module.LoadTaint(steps); err != nil {
		return nil, err
	}
	for _, m := range more {
		if err := m.LoadTaint(steps); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Generate builds p's generator, sampled by spl, on the shadow of an idle
// session and calls fn with it and the session's EventBatchSize-event
// delivery buffer, for runs that read only the generator: its stream, which
// fn draws through RunBatches into buf, and the shadow it writes. No module
// watches the shadow meanwhile, so the layout and the stream cost only
// their shadow writes. The session goes back on the idle list when fn
// returns, so fn must not keep the generator, its shadow or buf; the next
// run to take the session registers the module's watchers again when it
// recycles it.
func Generate(p workload.Profile, spl policy.Sampling, fn func(g *workload.Generator, buf []trace.Event) error) error {
	s, err := takeSession(latch.DefaultConfig())
	if err != nil {
		return err
	}
	defer releaseSession(s)
	s.Shadow.OnDomainTransition(nil)
	s.Shadow.OnByteTransition(nil)
	g, err := workload.NewSampledGeneratorOn(p, s.Shadow, spl)
	if err != nil {
		return err
	}
	return fn(g, s.batchBuf())
}

// maxIdlePages bounds the pages of tag storage a session may hold
// (shadow.Shadow.PagesAllocated) and still go back on the idle list: 8,192
// pages of 5 KiB is 40 MiB. A page aliased onto a pattern page holds none,
// so the largest registered layout, sphinx3, holds its 64 pattern pages,
// not its 4,133 tainted ones, plus a page for each one its churn copied
// before writing it; an alias costs only its page-table entry. With the
// coarse tables of the finest domain size (16 MiB at 8-byte domains) an
// idle session keeps at most about 56 MiB of pages and tables, whatever
// geometries it served.
const maxIdlePages = 8192

// idleModulesPerProc bounds the spare modules the idle state keeps per
// GOMAXPROCS: enough for one sweep of nine consumers on every processor. A
// spare module keeps only its coarse tables and caches, about 2 MiB at
// 64-byte domains and 16 MiB at 8-byte ones.
const idleModulesPerProc = 8

// idle is the free list RunProfile and RunProfileSession take their
// sessions from. It holds at most GOMAXPROCS sessions. A process that holds
// more sessions at once, such as a latch-serve with more workers than CPUs
// whose jobs keep theirs while they stream, builds a fresh one for each run
// that finds the list empty. Beside them it keeps the spare modules a
// sweep's later consumers run on, detached from any shadow, at most
// idleModulesPerProc per GOMAXPROCS.
var idle struct {
	mu       sync.Mutex
	sessions []*Session
	modules  []*latch.Module
}

// takeSession returns an idle session recycled for cfg, or a new one when
// none is idle.
func takeSession(cfg latch.Config) (*Session, error) {
	idle.mu.Lock()
	var s *Session
	if n := len(idle.sessions); n > 0 {
		s = idle.sessions[n-1]
		idle.sessions[n-1] = nil
		idle.sessions = idle.sessions[:n-1]
	}
	idle.mu.Unlock()
	if s != nil && s.Recycle(cfg) == nil {
		return s, nil
	}
	return NewSession(cfg)
}

// releaseSession puts a session whose run is over back on the idle list,
// unless the list is full or the run left it holding more than
// retainable allows at maxIdlePages (a session maps no guest pages). It
// drops the session's references to the run's observer, policy and profile
// either way.
func releaseSession(s *Session) {
	s.AttachObserver(nil)
	s.Policy = policy.Policy{}
	s.Profile = workload.Profile{}
	if !retainable(0, s.Shadow, s.Module, maxIdlePages) {
		return
	}
	idle.mu.Lock()
	if len(idle.sessions) < runtime.GOMAXPROCS(0) {
		idle.sessions = append(idle.sessions, s)
	}
	idle.mu.Unlock()
}

// takeModule returns a spare module attached to sh and reconfigured for cfg,
// or a new one when none is spare. sh must have cfg's domain size.
func takeModule(cfg latch.Config, sh *shadow.Shadow) (*latch.Module, error) {
	idle.mu.Lock()
	var m *latch.Module
	if n := len(idle.modules); n > 0 {
		m = idle.modules[n-1]
		idle.modules[n-1] = nil
		idle.modules = idle.modules[:n-1]
	}
	idle.mu.Unlock()
	if m != nil {
		m.Shadow = sh
		if m.Reconfigure(cfg) == nil {
			return m, nil
		}
	}
	return latch.New(cfg, sh)
}

// releaseModule detaches a sweep consumer's module from the shared shadow
// and keeps it as a spare, unless the spares are full or its tables grew
// past Config.AddressSpan. It must run before the shadow's Reset: the
// module's Reset finds its coarse words through the shadow's ever-tainted
// pages.
func releaseModule(m *latch.Module) {
	m.SetObserver(nil)
	if m.TablesGrown() {
		return
	}
	m.Reset()
	m.Shadow = nil
	idle.mu.Lock()
	if len(idle.modules) < idleModulesPerProc*runtime.GOMAXPROCS(0) {
		idle.modules = append(idle.modules, m)
	}
	idle.mu.Unlock()
}

// AttachObserver wires obs into the session and its module. Callers choose
// the moment: profile-driven runs attach after stats reset so the observer
// sees exactly the measured stream; program-driven runs attach at
// construction.
func (s *Session) AttachObserver(obs telemetry.Observer) {
	s.Observer = obs
	s.Module.SetObserver(obs)
}

// ConfigureEpochs arms the two-mode state machine: the shared cost table,
// the per-instruction software-mode extra (slowdown − 1), and the
// code-cache load latency charged on each hardware->software transfer.
func (s *Session) ConfigureEpochs(costs Costs, swExtra float64, codeCacheLat uint64) {
	s.costs = costs
	s.swExtra = swExtra
	s.codeCacheLat = codeCacheLat
}

// Mode returns the current execution mode.
func (s *Session) Mode() Mode { return s.mode }

// CheckMem performs one coarse memory check through the module, charging
// the CTC miss penalty for any misses the check caused (§6.1).
func (s *Session) CheckMem(addr uint32, size int) latch.CheckResult {
	res := s.Module.CheckMem(addr, size)
	if now := s.Module.CTCCheckMisses(); now != s.lastMisses {
		s.Cycles.CTCMiss += (now - s.lastMisses) * s.missPenalty
		s.lastMisses = now
	}
	return res
}

// Trap charges one exception-handler false-positive filtering pass
// (§5.1.2) for a hardware-mode positive.
func (s *Session) Trap() {
	s.Traps++
	s.Cycles.FPCheck += s.costs.FPCheck
}

// DismissTrap records a coarse false positive rejected by the precise
// filter; hardware mode continues.
func (s *Session) DismissTrap() {
	s.FalseTraps++
}

// SwitchToSoftware performs the hardware->software transfer of a confirmed
// trap: context save/restore plus the code-cache load, the epoch
// transition, and the trapping instruction's re-execution under
// instrumentation.
func (s *Session) SwitchToSoftware() {
	s.Switches++
	s.Cycles.Xfer += 2*s.costs.CtxSwitch + s.codeCacheLat
	s.mode = ModeSoftware
	if s.Observer != nil {
		s.Observer.EpochTransition(telemetry.ModeSoftware, s.Events)
	}
	s.sinceTaint = 0
	s.swFrac += s.swExtra
}

// SoftwareStep accounts one software-mode instruction and advances the
// §5.1.3 timeout. It reports true when the timeout fired: the backend then
// performs any scheme-specific rewrites and calls ReturnToHardware.
func (s *Session) SoftwareStep(tainted bool) bool {
	s.swFrac += s.swExtra
	if tainted {
		s.sinceTaint = 0
		return false
	}
	s.sinceTaint++
	return s.sinceTaint >= s.costs.TimeoutInstrs
}

// ReturnToHardware performs the software->hardware transition: scan the
// resident clear bits (§5.1.4), restore the native context, resume
// hardware monitoring.
func (s *Session) ReturnToHardware() {
	scanned := s.Module.ScanResidentClears()
	s.Cycles.Scan += scanned * s.costs.ScanPerDomain
	s.Cycles.Xfer += s.costs.CtxSwitch
	s.Returns++
	s.mode = ModeHardware
	if s.Observer != nil {
		s.Observer.EpochTransition(telemetry.ModeHardware, s.Events)
	}
	s.sinceTaint = 0
}

// CycleReport returns the run's cycle breakdown with the fractional
// software-mode accumulator folded into the Libdft category.
func (s *Session) CycleReport() Cycles {
	c := s.Cycles
	c.Libdft = uint64(s.swFrac)
	return c
}

// Snapshot is a comparable (==) summary of everything a Session accumulated
// over a run: the stream cursor, the epoch/trap counters, the folded cycle
// breakdown, and the module's coarse-state statistics. Two runs of the same
// backend over the same seeded stream must produce identical Snapshots —
// the replayability contract the differential checker asserts.
type Snapshot struct {
	Events     uint64
	Mode       Mode
	HWInstrs   uint64
	SWInstrs   uint64
	Switches   uint64
	Returns    uint64
	Traps      uint64
	FalseTraps uint64
	Cycles     Cycles
	Latch      latch.Stats
}

// Snapshot captures the session's current accumulated state.
func (s *Session) Snapshot() Snapshot {
	return Snapshot{
		Events:     s.Events,
		Mode:       s.mode,
		HWInstrs:   s.HWInstrs,
		SWInstrs:   s.SWInstrs,
		Switches:   s.Switches,
		Returns:    s.Returns,
		Traps:      s.Traps,
		FalseTraps: s.FalseTraps,
		Cycles:     s.CycleReport(),
		Latch:      s.Module.Stats(),
	}
}
