// Package enginetest holds cross-cutting engine tests that need the real
// backend integrations linked in. They live outside internal/engine on
// purpose: the engine package's own test binary asserts that registration
// is import-driven (no scheme registered unless its package is imported),
// so these blank imports cannot appear there.
package enginetest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"latch/internal/engine"
	"latch/internal/latch"
	"latch/internal/trace"
	"latch/internal/workload"

	_ "latch/internal/hlatch"
	_ "latch/internal/platch"
	_ "latch/internal/slatch"
)

// TestRunProfileCancellationPerBackend cancels a long run mid-stream on
// every registered backend and requires a prompt, clean unwind: ctx.Err()
// surfaced, no result, and — the hard case, cplatch's monitor shards — no
// goroutines left behind. The serving layer depends on exactly this
// contract to bound per-request deadlines.
func TestRunProfileCancellationPerBackend(t *testing.T) {
	p := workload.MustGet("gcc")
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			start := time.Now()
			res, err := engine.RunScheme(ctx, name, p, engine.RunOptions{Events: 200_000_000})
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if res != nil {
				t.Fatalf("canceled run returned a result: %v", res)
			}
			if elapsed > 5*time.Second {
				t.Fatalf("cancellation took %v; granularity not bounded", elapsed)
			}
			// Backend teardown (cplatch joins its shard goroutines in
			// Finish) must leave no stragglers.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked after cancel: %d -> %d",
						base, runtime.NumGoroutine())
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// cancelAtBackend cancels its run's context from inside StepBatch when the
// cursor reaches at, the way a deadline can expire while a batch is being
// consumed, and records where the stream stopped.
type cancelAtBackend struct {
	countBackend
	at      uint64
	cancel  context.CancelFunc
	stopped uint64
}

func (b *cancelAtBackend) StepBatch(s *engine.Session, evs []trace.Event) {
	for range evs {
		s.Events++
		if s.Events == b.at {
			b.cancel()
		}
	}
}

func (b *cancelAtBackend) Finish(s *engine.Session) engine.Result {
	b.stopped = s.Events
	return b.countBackend.Finish(s)
}

// TestCancelWithinPollInterval pins engine.CancelCheckEvents' promise: a run
// canceled while its backend consumes event N stops with Session.Events - N
// below CancelCheckEvents, whatever shadow-mutation barriers closed batches
// early. The points include both sides of poll boundaries, and 295,927 on
// apache, where batches shifted by barriers once ran 4,526 events past the
// cancellation.
func TestCancelWithinPollInterval(t *testing.T) {
	points := []uint64{1, 511, 512, 4095, 4096, 4097, 8191, 8192, 295_927, 299_999}
	for i := uint64(0); i < 95; i++ {
		points = append(points, 1+i*3121)
	}
	for _, name := range []string{"apache", "mysql"} {
		p := workload.MustGet(name)
		for _, at := range points {
			ctx, cancel := context.WithCancel(context.Background())
			b := &cancelAtBackend{countBackend: countBackend{cfg: latch.DefaultConfig()}, at: at, cancel: cancel}
			res, err := engine.RunProfile(ctx, b, p, engine.RunOptions{Events: 1 << 40})
			cancel()
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("%s canceled at %d: res=%v err=%v, want nil result and context.Canceled", name, at, res, err)
			}
			if b.stopped < at || b.stopped-at >= engine.CancelCheckEvents {
				t.Errorf("%s canceled at event %d stopped at %d: %d past the cancellation, want < %d",
					name, at, b.stopped, b.stopped-at, engine.CancelCheckEvents)
			}
		}
	}
}

// TestSessionRecyclingDeterminism pins the recycled-session contract for
// every registered backend: runs on sessions from RunProfile's idle list —
// the second after a run of another workload dirtied the session — are
// result-identical to a run on a fresh session, and the first run's result
// is untouched by the later reuse of its session. This is what lets every
// profile run reuse sessions without risking cross-run state bleed.
func TestSessionRecyclingDeterminism(t *testing.T) {
	p := workload.MustGet("gcc")
	const events = 100_000
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			sch, err := engine.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			want := render(runPerEvent(t, sch.New(), p, events))
			first, err := engine.RunProfile(context.Background(),
				sch.New(), p, engine.RunOptions{Events: events})
			if err != nil {
				t.Fatal(err)
			}
			if got := render(first); got != want {
				t.Fatalf("run on an idle-list session diverged:\nfresh    %s\nrecycled %s", want, got)
			}
			// Dirty the idle session with a different workload before the
			// measured run takes it, so the test catches any state the
			// recycling misses.
			if _, err := engine.RunProfile(context.Background(),
				sch.New(), workload.MustGet("bzip2"), engine.RunOptions{Events: 50_000}); err != nil {
				t.Fatal(err)
			}
			recycled, err := engine.RunProfile(context.Background(),
				sch.New(), p, engine.RunOptions{Events: events})
			if err != nil {
				t.Fatal(err)
			}
			if got := render(recycled); got != want {
				t.Fatalf("recycled session diverged:\nfresh    %s\nrecycled %s", want, got)
			}
			if got := render(first); got != want {
				t.Fatalf("a result changed after its session was reused:\nbefore %s\nafter  %s", want, got)
			}
		})
	}
}

// TestSessionGeometryMismatchRejected: a run never steps a backend on a
// session of another hardware geometry. The idle session a run of one domain
// size leaves is reconfigured for the next backend's geometry, and that run
// matches the per-event reference on a fresh session; a geometry no session
// can take is rejected loudly, and a rejected Recycle leaves its session's
// geometry and taint as they were.
func TestSessionGeometryMismatchRejected(t *testing.T) {
	p := workload.MustGet("gcc")
	sch, err := engine.Lookup(engine.Names()[0])
	if err != nil {
		t.Fatal(err)
	}
	_, sess, err := engine.RunProfileSession(context.Background(),
		sch.New(), p, engine.RunOptions{Events: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	// Leave an idle session of the backend's own geometry for the
	// mismatched run to take.
	if _, err := engine.RunProfile(context.Background(),
		sch.New(), p, engine.RunOptions{Events: 10_000}); err != nil {
		t.Fatal(err)
	}
	orig := sess.Module.Config()
	cfg := orig
	cfg.DomainSize *= 2
	res, ms, err := engine.RunProfileSession(context.Background(),
		&countBackend{cfg: cfg}, p, engine.RunOptions{Events: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if ms.Module.Config() != cfg || ms.Shadow.DomainSize() != cfg.DomainSize {
		t.Fatalf("a backend of geometry %+v ran on module geometry %+v, shadow domain %d B",
			cfg, ms.Module.Config(), ms.Shadow.DomainSize())
	}
	if got, want := render(res), render(runPerEvent(t, &countBackend{cfg: cfg}, p, 10_000)); got != want {
		t.Fatalf("run on a reconfigured session diverged:\nfresh    %s\nrecycled %s", want, got)
	}

	bad := cfg
	bad.DomainSize = 48
	if _, err := engine.RunProfile(context.Background(),
		&countBackend{cfg: bad}, p, engine.RunOptions{Events: 10_000}); err == nil {
		t.Fatal("a run on an invalid geometry accepted")
	}
	tainted := sess.Shadow.TaintedBytes()
	if tainted == 0 {
		t.Fatal("the handed-out session holds no taint to check a rejected Recycle against")
	}
	if err := sess.Recycle(bad); err == nil {
		t.Fatal("Recycle accepted an invalid geometry")
	}
	if sess.Module.Config() != orig || sess.Shadow.DomainSize() != orig.DomainSize {
		t.Fatalf("a rejected Recycle changed the session's geometry to %+v, shadow domain %d B",
			sess.Module.Config(), sess.Shadow.DomainSize())
	}
	if got := sess.Shadow.TaintedBytes(); got != tainted {
		t.Fatalf("a rejected Recycle changed the session's taint from %d to %d bytes", tainted, got)
	}
}

// countBackend is a minimal unregistered integration that runs under any
// config.
type countBackend struct {
	cfg latch.Config
	mem uint64
}

type countResult struct {
	bench  string
	events uint64
	checks uint64
}

func (r countResult) BenchmarkName() string    { return r.bench }
func (r countResult) EventCount() uint64       { return r.events }
func (r countResult) CheckCount() uint64       { return r.checks }
func (r countResult) Columns() []engine.Column { return nil }

func (b *countBackend) Name() string                 { return "count" }
func (b *countBackend) Config() latch.Config         { return b.cfg }
func (b *countBackend) Init(s *engine.Session) error { return nil }
func (b *countBackend) Step(s *engine.Session, ev trace.Event) {
	if ev.IsMem {
		b.mem++
		s.CheckMem(ev.Addr, int(ev.Size))
	}
}
func (b *countBackend) Finish(s *engine.Session) engine.Result {
	return countResult{bench: s.Profile.Name, events: s.Events, checks: b.mem}
}

// render flattens a backend result for comparison.
func render(r engine.Result) string {
	s := fmt.Sprintf("%s events=%d checks=%d", r.BenchmarkName(), r.EventCount(), r.CheckCount())
	for _, c := range r.Columns() {
		s += fmt.Sprintf(" %s=%v", c.Label, c.Value)
	}
	return s
}
