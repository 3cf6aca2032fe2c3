package engine

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"latch/internal/latch"
	"latch/internal/mem"
	"latch/internal/policy"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/workload"
)

// probeBackend counts events and memory checks, remembers the session it ran
// on, and runs prep on that session from Init, after materialization.
type probeBackend struct {
	cfg  latch.Config
	prep func(s *Session)
	sess *Session
	mem  uint64
}

// probeResult is a run's outcome as plain values, Snapshot included.
type probeResult struct {
	bench string
	snap  Snapshot
	mem   uint64
}

func (r probeResult) BenchmarkName() string { return r.bench }
func (r probeResult) EventCount() uint64    { return r.snap.Events }
func (r probeResult) CheckCount() uint64    { return r.mem }
func (r probeResult) Columns() []Column     { return []Column{{Label: "mem ops", Value: r.mem}} }

func (b *probeBackend) Name() string         { return "probe" }
func (b *probeBackend) Config() latch.Config { return b.cfg }
func (b *probeBackend) Init(s *Session) error {
	b.sess = s
	if b.prep != nil {
		b.prep(s)
	}
	return nil
}
func (b *probeBackend) Step(s *Session, ev trace.Event) {
	if ev.IsMem {
		b.mem++
		s.CheckMem(ev.Addr, int(ev.Size))
	}
}
func (b *probeBackend) Finish(s *Session) Result {
	return probeResult{bench: s.Profile.Name, snap: s.Snapshot(), mem: b.mem}
}

// drainIdle empties the idle list, so the next run builds a fresh session.
func drainIdle() {
	idle.mu.Lock()
	idle.sessions = nil
	idle.mu.Unlock()
}

// isIdle reports whether s is on the idle list.
func isIdle(s *Session) bool {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	return slices.Contains(idle.sessions, s)
}

func profile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunProfileRecycledSession: a session that carried a run of another
// workload goes back on the idle list, and the next run takes it, streams
// through the delivery buffer it kept, and produces exactly what a fresh
// session produces.
func TestRunProfileRecycledSession(t *testing.T) {
	gcc := profile(t, "gcc")
	opts := RunOptions{Events: 30_000}
	drainIdle()
	want, ws, err := RunProfileSession(context.Background(), &probeBackend{cfg: latch.DefaultConfig()}, gcc, opts)
	if err != nil {
		t.Fatal(err)
	}

	dirty := &probeBackend{cfg: latch.DefaultConfig()}
	if _, err := RunProfile(context.Background(), dirty, profile(t, "apache"), RunOptions{Events: 20_000}); err != nil {
		t.Fatal(err)
	}
	if dirty.sess == ws || !isIdle(dirty.sess) {
		t.Fatal("the dirtying run did not put a session of its own on the idle list")
	}
	buf := dirty.sess.batch
	got, gs, err := RunProfileSession(context.Background(), &probeBackend{cfg: latch.DefaultConfig()}, gcc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gs != dirty.sess {
		t.Fatal("the run did not take the idle session")
	}
	if len(buf) != EventBatchSize || len(gs.batch) != EventBatchSize || &gs.batch[0] != &buf[0] {
		t.Fatal("the recycled run did not stream through the delivery buffer its session kept")
	}
	if isIdle(gs) {
		t.Fatal("RunProfileSession left the session it handed out on the idle list")
	}
	if got != want {
		t.Fatalf("recycled result %+v, fresh %+v", got, want)
	}
	if gs.Snapshot() != ws.Snapshot() {
		t.Fatalf("recycled session %+v, fresh %+v", gs.Snapshot(), ws.Snapshot())
	}
}

// TestRunProfileRecycledGeometryMismatch: an idle session left by a run of
// another module geometry is not refused. The next run takes it, reconfigures
// it for the backend's geometry and produces exactly what a fresh session
// produces.
func TestRunProfileRecycledGeometryMismatch(t *testing.T) {
	gcc := profile(t, "gcc")
	opts := RunOptions{Events: 30_000}
	drainIdle()
	want, ws, err := RunProfileSession(context.Background(), &probeBackend{cfg: latch.DefaultConfig()}, gcc, opts)
	if err != nil {
		t.Fatal(err)
	}

	other := latch.DefaultConfig()
	other.DomainSize *= 2
	dirty := &probeBackend{cfg: other}
	if _, err := RunProfile(context.Background(), dirty, profile(t, "apache"), RunOptions{Events: 20_000}); err != nil {
		t.Fatal(err)
	}
	if !isIdle(dirty.sess) {
		t.Fatal("the run of the other geometry did not put its session on the idle list")
	}
	got, gs, err := RunProfileSession(context.Background(), &probeBackend{cfg: latch.DefaultConfig()}, gcc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gs != dirty.sess {
		t.Fatal("the run did not take the idle session of the other geometry")
	}
	if gs.Module.Config() != latch.DefaultConfig() || gs.Shadow.DomainSize() != latch.DefaultConfig().DomainSize {
		t.Fatalf("the run's session kept module geometry %+v, shadow domain %d B; want %+v",
			gs.Module.Config(), gs.Shadow.DomainSize(), latch.DefaultConfig())
	}
	if got != want {
		t.Fatalf("recycled result %+v, fresh %+v", got, want)
	}
	if gs.Snapshot() != ws.Snapshot() {
		t.Fatalf("recycled session %+v, fresh %+v", gs.Snapshot(), ws.Snapshot())
	}
}

// TestIdleListRetention pins the retention bound: a run that maps more tag
// pages than maxIdlePages, or taints past Config.AddressSpan, does not go
// back on the idle list; a run within the bound does, without references to
// its observer, policy or profile; the list never holds more than
// GOMAXPROCS sessions; and a result RunProfile returned is unchanged after
// later runs reuse its session.
func TestIdleListRetention(t *testing.T) {
	gcc := profile(t, "gcc")
	opts := RunOptions{Events: 5_000}
	drainIdle()

	wide := &probeBackend{cfg: latch.DefaultConfig(), prep: func(s *Session) {
		for pn := uint32(0); pn <= maxIdlePages; pn++ {
			s.Shadow.Set(0x10000000+pn*mem.PageSize, 1) // within AddressSpan
		}
	}}
	if _, err := RunProfile(context.Background(), wide, gcc, opts); err != nil {
		t.Fatal(err)
	}
	if n := wide.sess.Shadow.PagesAllocated(); n <= maxIdlePages {
		t.Fatalf("the wide run mapped only %d tag pages", n)
	}
	if wide.sess.Module.TablesGrown() || isIdle(wide.sess) {
		t.Fatalf("a session mapping %d tag pages went back on the idle list (grown %v)",
			wide.sess.Shadow.PagesAllocated(), wide.sess.Module.TablesGrown())
	}

	top := &probeBackend{cfg: latch.DefaultConfig(), prep: func(s *Session) {
		s.Module.StoreTaint(0xFFFFF000, 1)
	}}
	if _, err := RunProfile(context.Background(), top, gcc, opts); err != nil {
		t.Fatal(err)
	}
	if !top.sess.Module.TablesGrown() || isIdle(top.sess) {
		t.Fatalf("a session whose tables grew went back on the idle list (grown %v)", top.sess.Module.TablesGrown())
	}

	kept := &probeBackend{cfg: latch.DefaultConfig()}
	first, err := RunProfile(context.Background(), kept, gcc, RunOptions{Events: 5_000, Observer: telemetry.NewMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	s := kept.sess
	if !isIdle(s) {
		t.Fatal("a session within the bound did not go back on the idle list")
	}
	if s.Observer != nil || !reflect.DeepEqual(s.Profile, workload.Profile{}) || !reflect.DeepEqual(s.Policy, policy.Policy{}) {
		t.Fatal("an idle session kept references to its last run")
	}
	saved := first.(probeResult)
	for _, name := range []string{"apache", "mysql"} {
		b := &probeBackend{cfg: latch.DefaultConfig()}
		if _, err := RunProfile(context.Background(), b, profile(t, name), opts); err != nil {
			t.Fatal(err)
		}
		if b.sess != s {
			t.Fatal("a later run did not reuse the idle session")
		}
	}
	if first.(probeResult) != saved {
		t.Fatalf("a returned result changed after its session was reused:\nbefore %+v\nafter  %+v", saved, first)
	}

	for i := 0; i < runtime.GOMAXPROCS(0)+2; i++ {
		s, err := NewSession(latch.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		releaseSession(s)
	}
	idle.mu.Lock()
	n := len(idle.sessions)
	idle.mu.Unlock()
	if n != runtime.GOMAXPROCS(0) {
		t.Fatalf("the idle list holds %d sessions, want GOMAXPROCS = %d", n, runtime.GOMAXPROCS(0))
	}
}
