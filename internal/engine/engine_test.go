package engine_test

import (
	"context"
	"strings"
	"testing"

	"latch/internal/engine"
	"latch/internal/latch"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/workload"
)

// fakeBackend is a minimal integration: it counts events and memory
// operands and reports them. Registered once for the registry-driven tests.
type fakeBackend struct {
	cfg    latch.Config
	inited bool
	steps  uint64
	mem    uint64
}

type fakeResult struct {
	bench  string
	events uint64
	checks uint64
}

func (r fakeResult) BenchmarkName() string { return r.bench }
func (r fakeResult) EventCount() uint64    { return r.events }
func (r fakeResult) CheckCount() uint64    { return r.checks }
func (r fakeResult) Columns() []engine.Column {
	return []engine.Column{{Label: "mem ops", Value: r.checks}}
}

func (b *fakeBackend) Name() string         { return "fake" }
func (b *fakeBackend) Config() latch.Config { return b.cfg }
func (b *fakeBackend) Init(s *engine.Session) error {
	b.inited = true
	return nil
}
func (b *fakeBackend) Step(s *engine.Session, ev trace.Event) {
	b.steps++
	if ev.IsMem {
		b.mem++
		s.CheckMem(ev.Addr, int(ev.Size))
	}
}
func (b *fakeBackend) Finish(s *engine.Session) engine.Result {
	return fakeResult{bench: s.Profile.Name, events: s.Events, checks: b.mem}
}

func init() {
	engine.Register(engine.Scheme{
		Name:  "fake",
		Title: "fake test backend",
		New:   func() engine.Backend { return &fakeBackend{cfg: latch.DefaultConfig()} },
	})
}

func TestModeString(t *testing.T) {
	if engine.ModeHardware.String() != "hardware" || engine.ModeSoftware.String() != "software" {
		t.Fatalf("mode names: %q %q", engine.ModeHardware, engine.ModeSoftware)
	}
}

func TestCycles(t *testing.T) {
	c := engine.Cycles{Base: 100, Libdft: 20, Xfer: 10, FPCheck: 5, CTCMiss: 3, Scan: 2}
	if c.Total() != 140 {
		t.Fatalf("total = %d", c.Total())
	}
	if got := c.Overhead(); got < 0.399 || got > 0.401 {
		t.Fatalf("overhead = %v", got)
	}
	if (engine.Cycles{}).Overhead() != 0 {
		t.Fatal("zero-base overhead should be 0")
	}
}

func TestDefaultCosts(t *testing.T) {
	c := engine.DefaultCosts()
	want := engine.Costs{
		CtxSwitch:     400,
		FPCheck:       120,
		ScanPerDomain: 20,
		CodeCacheLat:  800,
		TimeoutInstrs: 1000,
	}
	if c != want {
		t.Fatalf("DefaultCosts = %+v, want %+v", c, want)
	}
}

func TestRegistry(t *testing.T) {
	sch, err := engine.Lookup("fake")
	if err != nil {
		t.Fatal(err)
	}
	if sch.Title != "fake test backend" || sch.New().Name() != "fake" {
		t.Fatalf("bad scheme: %+v", sch)
	}
	if _, err := engine.Lookup("no-such-backend"); err == nil {
		t.Fatal("Lookup of unknown backend succeeded")
	}
	names := engine.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	found := false
	for _, n := range names {
		if n == "fake" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fake missing from %v", names)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, sch engine.Scheme) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
		}()
		engine.Register(sch)
	}
	factory := func() engine.Backend { return &fakeBackend{} }
	mustPanic("empty name", engine.Scheme{Name: "", New: factory})
	mustPanic("nil factory", engine.Scheme{Name: "nil-factory", New: nil})
	mustPanic("duplicate", engine.Scheme{Name: "fake", New: factory})
}

func TestRunProfile(t *testing.T) {
	p, err := workload.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	b := &fakeBackend{cfg: latch.DefaultConfig()}
	res, err := engine.RunProfile(context.Background(), b, p, engine.RunOptions{Events: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if !b.inited {
		t.Fatal("Init not called")
	}
	if b.steps != 50_000 || res.EventCount() != 50_000 {
		t.Fatalf("steps=%d events=%d", b.steps, res.EventCount())
	}
	if res.BenchmarkName() != "gcc" {
		t.Fatalf("benchmark = %q", res.BenchmarkName())
	}
	if res.CheckCount() == 0 {
		t.Fatal("no memory operands seen")
	}
	if cols := res.Columns(); len(cols) != 1 || cols[0].Label != "mem ops" {
		t.Fatalf("columns = %+v", cols)
	}
}

func TestRunProfileObserverIdentical(t *testing.T) {
	p, err := workload.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := engine.RunProfile(context.Background(), &fakeBackend{cfg: latch.DefaultConfig()}, p,
		engine.RunOptions{Events: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewMetrics()
	observed, err := engine.RunProfile(context.Background(), &fakeBackend{cfg: latch.DefaultConfig()}, p,
		engine.RunOptions{Events: 30_000, Observer: m})
	if err != nil {
		t.Fatal(err)
	}
	if plain != observed {
		t.Fatalf("observer changed the result: %+v vs %+v", plain, observed)
	}
	if m.Snapshot().CoarseChecks == 0 {
		t.Fatal("observer saw no coarse checks")
	}
}

func TestRunScheme(t *testing.T) {
	p, err := workload.Get("apache")
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunScheme(context.Background(), "fake", p, engine.RunOptions{Events: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventCount() != 10_000 {
		t.Fatalf("events = %d", res.EventCount())
	}
	if _, err := engine.RunScheme(context.Background(), "no-such-backend", p, engine.RunOptions{Events: 10}); err == nil {
		t.Fatal("unknown scheme ran")
	}
}

func TestNewSessionBadConfig(t *testing.T) {
	cfg := latch.DefaultConfig()
	cfg.DomainSize = 3 // not a power of two
	if _, err := engine.NewSession(cfg); err == nil {
		t.Fatal("bad domain size accepted")
	}
}

func TestSessionEpochMachine(t *testing.T) {
	s, err := engine.NewSession(latch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	costs := engine.Costs{
		CtxSwitch:     400,
		FPCheck:       120,
		ScanPerDomain: 20,
		CodeCacheLat:  800,
		TimeoutInstrs: 3,
	}
	s.ConfigureEpochs(costs, 4, 800)
	if s.Mode() != engine.ModeHardware {
		t.Fatal("session did not start in hardware mode")
	}

	s.Trap()
	s.DismissTrap()
	if s.Traps != 1 || s.FalseTraps != 1 || s.Cycles.FPCheck != 120 {
		t.Fatalf("trap accounting: %+v", s)
	}

	s.SwitchToSoftware()
	if s.Mode() != engine.ModeSoftware || s.Switches != 1 {
		t.Fatal("switch did not enter software mode")
	}
	if s.Cycles.Xfer != 2*400+800 {
		t.Fatalf("xfer = %d", s.Cycles.Xfer)
	}

	// A tainted step resets the timeout; three clean steps fire it.
	if s.SoftwareStep(true) {
		t.Fatal("tainted step fired the timeout")
	}
	if s.SoftwareStep(false) || s.SoftwareStep(false) {
		t.Fatal("timeout fired early")
	}
	if !s.SoftwareStep(false) {
		t.Fatal("timeout did not fire")
	}

	s.ReturnToHardware()
	if s.Mode() != engine.ModeHardware || s.Returns != 1 {
		t.Fatal("return did not restore hardware mode")
	}
	if s.Cycles.Xfer != 2*400+800+400 {
		t.Fatalf("xfer after return = %d", s.Cycles.Xfer)
	}

	// Libdft extras: one switch re-execution + four software steps, 4 each.
	if rep := s.CycleReport(); rep.Libdft != 5*4 {
		t.Fatalf("libdft = %d", rep.Libdft)
	}
}

func TestSessionEpochTransitionsObserved(t *testing.T) {
	s, err := engine.NewSession(latch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewMetrics()
	s.AttachObserver(m)
	s.ConfigureEpochs(engine.DefaultCosts(), 4, 800)
	s.Events = 7
	s.SwitchToSoftware()
	s.Events = 9
	s.ReturnToHardware()
	snap := m.Snapshot()
	if snap.SwitchesToSoftware != 1 || snap.SwitchesToHardware != 1 {
		t.Fatalf("epoch telemetry: +sw=%d +hw=%d", snap.SwitchesToSoftware, snap.SwitchesToHardware)
	}
}

func TestSessionCheckMemCharging(t *testing.T) {
	cfg := latch.DefaultConfig()
	s, err := engine.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Taint one byte on each of 64 pages: every check reaches past the TLB
	// page bits to the CTC, and 64 distinct CTT words overflow its 16
	// entries, forcing misses.
	for i := uint32(0); i < 64; i++ {
		s.Module.StoreTaint(i*4096, 1)
	}
	for pass := 0; pass < 2; pass++ {
		for i := uint32(0); i < 64; i++ {
			s.CheckMem(i*4096, 4)
		}
	}
	misses := s.Module.Stats().CTCCheckMisses
	if misses == 0 {
		t.Fatal("no CTC misses generated")
	}
	if want := misses * cfg.CTCMissPenalty; s.Cycles.CTCMiss != want {
		t.Fatalf("CTCMiss cycles = %d, want %d", s.Cycles.CTCMiss, want)
	}
}

func TestRunProfileBadWorkload(t *testing.T) {
	p := workload.Profile{Name: "bogus"} // no layout: generator must reject
	if _, err := engine.RunProfile(context.Background(), &fakeBackend{cfg: latch.DefaultConfig()}, p,
		engine.RunOptions{Events: 10}); err == nil {
		t.Fatal("bogus profile ran")
	}
}

func TestRegistrationIsImportDriven(t *testing.T) {
	// The engine package itself knows no scheme: the integrations appear in
	// the registry only when their packages are linked in. This test binary
	// does not import them.
	for _, name := range []string{"hlatch", "platch", "slatch"} {
		if _, err := engine.Lookup(name); err == nil {
			t.Fatalf("%s registered without importing its package", name)
		}
	}
	if !strings.Contains(engine.ModeSoftware.String(), "software") {
		t.Fatal("unexpected mode name")
	}
}
