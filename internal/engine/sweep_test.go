package engine

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"

	"latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/trace"
	"latch/internal/workload"
)

// epochBackend is a small S-LATCH over the Session's epoch machine: a coarse
// positive on tainted data switches to software mode, which returns to
// hardware, scanning the resident clear bits, after the timeout. It uses
// every piece of state a sweep keeps per consumer: the module and its
// caches, the cycle categories, the epoch counters and the cursor. It
// remembers the module it ran on.
type epochBackend struct {
	cfg    latch.Config
	module *latch.Module
}

func (b *epochBackend) Name() string         { return "epoch" }
func (b *epochBackend) Config() latch.Config { return b.cfg }
func (b *epochBackend) Init(s *Session) error {
	b.module = s.Module
	costs := DefaultCosts()
	costs.TimeoutInstrs = 200
	s.ConfigureEpochs(costs, 1.5, 10)
	return nil
}

func (b *epochBackend) Step(s *Session, ev trace.Event) {
	s.Cycles.Base++
	if s.Mode() == ModeSoftware {
		s.SWInstrs++
		if s.SoftwareStep(ev.Tainted) {
			s.ReturnToHardware()
		}
		return
	}
	s.HWInstrs++
	positive, truly := ev.Tainted, ev.Tainted
	if ev.IsMem {
		c := s.CheckMem(ev.Addr, int(ev.Size))
		positive = positive || c.CoarsePositive
		truly = truly || c.TrulyTainted
	}
	if !positive {
		return
	}
	s.Trap()
	if !truly {
		s.DismissTrap()
		return
	}
	s.SwitchToSoftware()
}

func (b *epochBackend) Finish(s *Session) Result {
	return probeResult{bench: s.Profile.Name, snap: s.Snapshot()}
}

// batchEpochBackend is epochBackend taking batches, so a sweep mixes both
// delivery paths.
type batchEpochBackend struct{ epochBackend }

func (b *batchEpochBackend) StepBatch(s *Session, evs []trace.Event) {
	for i := range evs {
		s.Events++
		b.Step(s, evs[i])
	}
}

// sweepGeometries are module geometries that share the default domain size:
// every clear policy, and CTC, TLB and taint-cache sizes that move the
// results apart.
func sweepGeometries() []latch.Config {
	lazy := latch.DefaultConfig()
	lazy.Clear = latch.LazyClear
	lazy.BaselineTCache = false
	lazy.CTCEntries = 4
	eager := latch.DefaultConfig()
	eager.TLBEntries = 16
	none := latch.DefaultConfig()
	none.Clear = latch.NoClear
	none.CTCEntries = 64
	wide := lazy
	wide.CTCEntries = 16
	wide.TCache.Sets = 64
	return []latch.Config{lazy, eager, none, wide}
}

// epochBackends returns one fresh backend per geometry, alternating the
// per-event and batched delivery paths.
func epochBackends() []Backend {
	var bs []Backend
	for i, cfg := range sweepGeometries() {
		if i%2 == 0 {
			bs = append(bs, &epochBackend{cfg: cfg})
		} else {
			bs = append(bs, &batchEpochBackend{epochBackend{cfg: cfg}})
		}
	}
	return bs
}

// drainSpares empties the spare modules.
func drainSpares() {
	idle.mu.Lock()
	idle.modules = nil
	idle.mu.Unlock()
}

func isSpare(m *latch.Module) bool {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	return slices.Contains(idle.modules, m)
}

// TestRunSweepMatchesRunProfile is the sweep's oracle in this package: over
// apache, astar and sphinx3, whose streams churn taint and read near it, and
// under a sampled policy too, consumer i of a sweep returns exactly what a
// solo RunProfile of backend i returns, Snapshot included.
func TestRunSweepMatchesRunProfile(t *testing.T) {
	sampled := policy.Default()
	sampled.Sampling = policy.Sampling{SampleFraction: 0.5, SampleSeed: 3}
	for _, name := range []string{"apache", "astar", "sphinx3"} {
		for _, pol := range []policy.Policy{{}, sampled} {
			p := profile(t, name)
			opts := RunOptions{Events: 40_000, Policy: pol}
			got, err := RunSweep(context.Background(), p, epochBackends(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range epochBackends() {
				want, err := RunProfile(context.Background(), b, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Errorf("%s (sampling %v) consumer %d:\nsweep %+v\nsolo  %+v", name, pol.Sampling, i, got[i], want)
				}
			}
			if got[0].(probeResult).snap.Switches == 0 {
				t.Fatalf("%s: the epoch machine never switched; the oracle is blind", name)
			}
		}
	}
}

// TestRunSweepSpareModules: a sweep's later consumers run on spare modules,
// which go back to the idle state after the sweep and serve the next one;
// the spares are bounded, and a module whose tables grew is dropped.
func TestRunSweepSpareModules(t *testing.T) {
	drainIdle()
	drainSpares()
	p := profile(t, "gcc")
	first := epochBackends()
	if _, err := RunSweep(context.Background(), p, first, RunOptions{Events: 5_000}); err != nil {
		t.Fatal(err)
	}
	var used []*latch.Module
	for _, b := range first[1:] {
		m := moduleOf(b)
		if !isSpare(m) || m.Shadow != nil {
			t.Fatal("a consumer's module did not go back, detached, to the spare modules")
		}
		used = append(used, m)
	}
	second := epochBackends()
	if _, err := RunSweep(context.Background(), p, second, RunOptions{Events: 5_000}); err != nil {
		t.Fatal(err)
	}
	for _, b := range second[1:] {
		if !slices.Contains(used, moduleOf(b)) {
			t.Fatal("the second sweep built a module instead of taking a spare")
		}
	}

	drainSpares()
	sess, err := NewSession(latch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := takeModule(latch.DefaultConfig(), sess.Shadow)
	if err != nil {
		t.Fatal(err)
	}
	m.StoreTaint(0xFFFFF000, 1)
	releaseModule(m)
	if isSpare(m) {
		t.Fatal("a module whose tables grew became a spare")
	}

	for i := 0; i < idleModulesPerProc*runtime.GOMAXPROCS(0)+3; i++ {
		s, err := NewSession(latch.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		releaseModule(s.Module)
	}
	idle.mu.Lock()
	n := len(idle.modules)
	idle.mu.Unlock()
	if want := idleModulesPerProc * runtime.GOMAXPROCS(0); n != want {
		t.Fatalf("the idle state keeps %d spare modules, want %d", n, want)
	}
}

// moduleOf returns the module an epochBackends backend ran on.
func moduleOf(b Backend) *latch.Module {
	if bb, ok := b.(*batchEpochBackend); ok {
		return bb.module
	}
	return b.(*epochBackend).module
}

// writerBackend is epochBackend that taints a clean byte of the shadow in
// the phase named by at: "init", "step" (at event 1,000) or "finish".
type writerBackend struct {
	epochBackend
	at       string
	finished bool
}

const writerAddr = 0x08000000 // clean: below every generated footprint

func (b *writerBackend) Init(s *Session) error {
	if b.at == "init" {
		s.Shadow.Set(writerAddr, 1)
	}
	return b.epochBackend.Init(s)
}

func (b *writerBackend) Step(s *Session, ev trace.Event) {
	if b.at == "step" && s.Events == 1_000 {
		s.Shadow.Set(writerAddr, 1)
	}
	b.epochBackend.Step(s, ev)
}

func (b *writerBackend) Finish(s *Session) Result {
	b.finished = true
	if b.at == "finish" {
		s.Shadow.Set(writerAddr, 1)
	}
	return b.epochBackend.Finish(s)
}

// TestRunSweepConsumerWriteFails: only the generator may write the shared
// shadow. A consumer that taints a byte, from Init, a batch or Finish, fails
// the sweep with ErrConsumerWrite, and every backend initialized is still
// finalized. The same backend alone, where nothing else reads the shadow,
// runs.
func TestRunSweepConsumerWriteFails(t *testing.T) {
	p := profile(t, "gcc")
	for _, at := range []string{"init", "step", "finish"} {
		lead := &finishProbe{epochBackend: epochBackend{cfg: latch.DefaultConfig()}}
		w := &writerBackend{epochBackend: epochBackend{cfg: latch.DefaultConfig()}, at: at}
		res, err := RunSweep(context.Background(), p, []Backend{lead, w}, RunOptions{Events: 20_000})
		if !errors.Is(err, ErrConsumerWrite) || res != nil {
			t.Fatalf("%s write: res=%v err=%v, want ErrConsumerWrite", at, res, err)
		}
		if !lead.finished || !w.finished {
			t.Fatalf("%s write: a backend was not finalized (lead %v, writer %v)", at, lead.finished, w.finished)
		}
	}
	solo := &writerBackend{epochBackend: epochBackend{cfg: latch.DefaultConfig()}, at: "step"}
	if _, err := RunSweep(context.Background(), p, []Backend{solo}, RunOptions{Events: 20_000}); err != nil {
		t.Fatalf("a one-consumer sweep refused its consumer's write: %v", err)
	}
}

// finishProbe is epochBackend recording that Finish ran, and canceling its
// run's context at event cancelAt when cancel is set.
type finishProbe struct {
	epochBackend
	finished bool
	cancelAt uint64
	cancel   context.CancelFunc
}

func (b *finishProbe) Step(s *Session, ev trace.Event) {
	b.epochBackend.Step(s, ev)
	if b.cancel != nil && s.Events == b.cancelAt {
		b.cancel()
	}
}

func (b *finishProbe) Finish(s *Session) Result {
	b.finished = true
	return b.epochBackend.Finish(s)
}

// TestRunSweepCancel: a sweep canceled mid-stream stops within one poll
// interval, finalizes every consumer and returns the context's error; one
// canceled before the stream starts initializes nothing.
func TestRunSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 10_000
	var bs []Backend
	var probes []*finishProbe
	for i, cfg := range sweepGeometries() {
		fp := &finishProbe{epochBackend: epochBackend{cfg: cfg}}
		if i == 1 {
			fp.cancelAt, fp.cancel = cancelAt, cancel
		}
		bs = append(bs, fp)
		probes = append(probes, fp)
	}
	res, err := RunSweep(ctx, profile(t, "apache"), bs, RunOptions{Events: 1 << 30})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res=%v err=%v, want nil results and context.Canceled", res, err)
	}
	for i, fp := range probes {
		if !fp.finished {
			t.Fatalf("consumer %d was not finalized", i)
		}
	}

	early := &finishProbe{epochBackend: epochBackend{cfg: latch.DefaultConfig()}}
	if _, err := RunSweep(ctx, profile(t, "gcc"), []Backend{early, &epochBackend{cfg: latch.DefaultConfig()}}, RunOptions{Events: 1_000}); !errors.Is(err, context.Canceled) {
		t.Fatalf("a sweep canceled before its stream: err=%v", err)
	}
	if early.module != nil || early.finished {
		t.Fatal("a sweep canceled before its stream initialized a backend")
	}
}

// failInit fails its Init.
type failInit struct{ epochBackend }

func (b *failInit) Init(*Session) error { return errors.New("init refused") }

// TestRunSweepRejects: a sweep needs backends of one domain size, a valid
// policy and a valid profile; a backend whose Init fails ends the sweep
// after finalizing the consumers initialized before it; and a one-consumer
// sweep is RunProfile.
func TestRunSweepRejects(t *testing.T) {
	p := profile(t, "gcc")
	opts := RunOptions{Events: 5_000}
	if _, err := RunSweep(context.Background(), p, nil, opts); err == nil {
		t.Fatal("a sweep without backends ran")
	}
	coarse := latch.DefaultConfig()
	coarse.DomainSize *= 2
	mixed := []Backend{&epochBackend{cfg: latch.DefaultConfig()}, &epochBackend{cfg: coarse}}
	if _, err := RunSweep(context.Background(), p, mixed, opts); err == nil {
		t.Fatal("a sweep mixing domain sizes ran")
	}
	bad := RunOptions{Events: 5_000, Policy: policy.Policy{Sampling: policy.Sampling{SampleFraction: 2}}}
	if _, err := RunSweep(context.Background(), p, epochBackends(), bad); err == nil {
		t.Fatal("a sweep under an invalid policy ran")
	}
	bogus := p
	bogus.PagesAccessed = 0
	if _, err := RunSweep(context.Background(), bogus, epochBackends(), opts); err == nil {
		t.Fatal("a sweep of an invalid profile ran")
	}
	lead := &finishProbe{epochBackend: epochBackend{cfg: latch.DefaultConfig()}}
	after := &finishProbe{epochBackend: epochBackend{cfg: latch.DefaultConfig()}}
	if _, err := RunSweep(context.Background(), p, []Backend{lead, &failInit{epochBackend{cfg: latch.DefaultConfig()}}, after}, opts); err == nil {
		t.Fatal("a sweep whose backend failed Init ran")
	}
	if !lead.finished || after.finished || after.module != nil {
		t.Fatalf("after a failed Init: lead finalized %v, later consumer initialized %v", lead.finished, after.module != nil)
	}
	invalid := latch.DefaultConfig()
	invalid.CTCEntries = 0
	if _, err := RunSweep(context.Background(), p, []Backend{&epochBackend{cfg: latch.DefaultConfig()}, &epochBackend{cfg: invalid}}, opts); err == nil {
		t.Fatal("a sweep with an invalid consumer geometry ran")
	}

	one, err := RunSweep(context.Background(), p, []Backend{&epochBackend{cfg: latch.DefaultConfig()}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunProfile(context.Background(), &epochBackend{cfg: latch.DefaultConfig()}, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != want {
		t.Fatalf("one-consumer sweep %+v, RunProfile %+v", one, want)
	}
	if _, err := RunSweep(context.Background(), bogus, []Backend{&epochBackend{cfg: latch.DefaultConfig()}}, opts); err == nil {
		t.Fatal("a one-consumer sweep of an invalid profile ran")
	}
}

// TestRecordRefusesShadowReaders: a stream that reads the shadow after
// materialization, through near-taint accesses or churn, differs between
// sampled layouts, so it cannot be recorded once for all of them.
func TestRecordRefusesShadowReaders(t *testing.T) {
	for _, name := range []string{"apache", "astar", "sphinx3"} {
		if _, err := Record(profile(t, name), 1_000); err == nil {
			t.Errorf("%s was recorded", name)
		}
	}
	p := profile(t, "bzip2")
	for _, mod := range []func(*workload.Profile){
		func(p *workload.Profile) { p.CleanNearTaint = 0.01 },
		func(p *workload.Profile) { p.BurstNearTaint = 0.01 },
		func(p *workload.Profile) { p.ChurnProb = 0.01 },
	} {
		q := p
		mod(&q)
		if _, err := Record(q, 1_000); err == nil {
			t.Errorf("a profile reading the shadow was recorded: %+v", q)
		}
	}
	bogus := p
	bogus.PagesAccessed = 0
	if _, err := Record(bogus, 1_000); err == nil {
		t.Error("an invalid profile was recorded")
	}
}

// TestRecordingRunMatchesRunProfile: a replayed run equals RunProfile under
// the same sampling, whichever delivery path the backend takes, and some
// sampled points differ from the unsampled one, so sampled-out runs are in
// the window; a replay longer than the recording or under an invalid policy
// is refused; and a replay canceled mid-stream finalizes its backend.
func TestRecordingRunMatchesRunProfile(t *testing.T) {
	p := profile(t, "lbm")
	const events = 60_000
	rec, err := Record(p, events)
	if err != nil {
		t.Fatal(err)
	}
	var full Result
	thinned := 0
	for _, f := range []float64{1, 0.5, 0.01} {
		for _, seed := range []uint64{1, 2, 3} {
			opts := RunOptions{Events: events, Policy: policy.Default()}
			opts.Policy.Sampling = policy.Sampling{SampleFraction: f, SampleSeed: seed}
			for i, b := range epochBackends() {
				want, err := RunProfile(context.Background(), b, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rec.Run(context.Background(), epochBackends()[i], opts)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("fraction %v seed %d backend %d:\nreplay %+v\nsolo   %+v", f, seed, i, got, want)
				}
				if i == 0 && f == 1 {
					full = want
				} else if i == 0 && want != full {
					thinned++
				}
			}
		}
	}
	if thinned == 0 {
		t.Fatal("no sampled point differs from the unsampled one; the oracle is blind to the replay's taint flags")
	}
	if _, err := rec.Run(context.Background(), &epochBackend{cfg: latch.DefaultConfig()}, RunOptions{Events: events + 1}); err == nil {
		t.Error("a replay longer than its recording ran")
	}
	bad := RunOptions{Events: 10, Policy: policy.Policy{Sampling: policy.Sampling{SampleFraction: -1}}}
	if _, err := rec.Run(context.Background(), &epochBackend{cfg: latch.DefaultConfig()}, bad); err == nil {
		t.Error("a replay under an invalid policy ran")
	}
	if _, err := rec.Run(context.Background(), &failInit{epochBackend{cfg: latch.DefaultConfig()}}, RunOptions{Events: 10}); err == nil {
		t.Error("a replay whose backend failed Init ran")
	}

	ctx, cancel := context.WithCancel(context.Background())
	fp := &finishProbe{epochBackend: epochBackend{cfg: latch.DefaultConfig()}, cancelAt: 5_000, cancel: cancel}
	if res, err := rec.Run(ctx, fp, RunOptions{Events: events}); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("canceled replay: res=%v err=%v", res, err)
	}
	if !fp.finished {
		t.Fatal("a canceled replay skipped Finish")
	}
	if _, err := rec.Run(ctx, &epochBackend{cfg: latch.DefaultConfig()}, RunOptions{Events: events}); !errors.Is(err, context.Canceled) {
		t.Fatalf("a replay canceled before its stream: err=%v", err)
	}
}
