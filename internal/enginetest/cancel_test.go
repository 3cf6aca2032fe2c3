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
// consumed.
type cancelAtBackend struct {
	countBackend
	at     uint64
	cancel context.CancelFunc
}

func (b *cancelAtBackend) StepBatch(s *engine.Session, evs []trace.Event) {
	for range evs {
		s.Events++
		if s.Events == b.at {
			b.cancel()
		}
	}
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
		var sess *engine.Session
		for _, at := range points {
			ctx, cancel := context.WithCancel(context.Background())
			b := &cancelAtBackend{countBackend: countBackend{cfg: latch.DefaultConfig()}, at: at, cancel: cancel}
			res, s, err := engine.RunProfileSession(ctx, b, p, engine.RunOptions{Events: 1 << 40, Session: sess})
			cancel()
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("%s canceled at %d: res=%v err=%v, want nil result and context.Canceled", name, at, res, err)
			}
			if s.Events < at || s.Events-at >= engine.CancelCheckEvents {
				t.Errorf("%s canceled at event %d stopped at %d: %d past the cancellation, want < %d",
					name, at, s.Events, s.Events-at, engine.CancelCheckEvents)
			}
			sess = s
		}
	}
}

// TestSessionRecyclingDeterminism pins the recycled-session contract for
// every registered backend: a run on a worker's recycled session is
// result-identical to a run on a fresh one. This is what lets the server
// keep sessions hot without risking cross-job state bleed.
func TestSessionRecyclingDeterminism(t *testing.T) {
	p := workload.MustGet("gcc")
	const events = 100_000
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			sch, err := engine.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			fresh, sess, err := engine.RunProfileSession(context.Background(),
				sch.New(), p, engine.RunOptions{Events: events})
			if err != nil {
				t.Fatal(err)
			}
			// Dirty the session with a different workload before recycling,
			// so the test catches any state the reset misses.
			if _, _, err := engine.RunProfileSession(context.Background(),
				sch.New(), workload.MustGet("bzip2"), engine.RunOptions{Events: 50_000, Session: sess}); err != nil {
				t.Fatal(err)
			}
			recycled, _, err := engine.RunProfileSession(context.Background(),
				sch.New(), p, engine.RunOptions{Events: events, Session: sess})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := render(recycled), render(fresh); got != want {
				t.Fatalf("recycled session diverged:\nfresh    %s\nrecycled %s", want, got)
			}
		})
	}
}

// TestSessionGeometryMismatchRejected: recycling a session into a backend
// with different hardware geometry must fail loudly, not corrupt results.
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
	cfg := sess.Module.Config()
	cfg.DomainSize *= 2
	mismatched := &countBackend{cfg: cfg}
	if _, _, err := engine.RunProfileSession(context.Background(),
		mismatched, p, engine.RunOptions{Events: 10_000, Session: sess}); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

// countBackend is a minimal unregistered integration used to probe the
// geometry-mismatch path with an arbitrary config.
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
