package enginetest

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"latch/internal/engine"
	"latch/internal/hlatch"
	"latch/internal/latch"
	"latch/internal/platch"
	"latch/internal/slatch"
	"latch/internal/trace"
	"latch/internal/workload"
)

// snapBackend wraps a registered backend and keeps its session's Snapshot
// from Finish, so a sweep consumer's shared state can be compared with a
// solo run's. When cancel is set, it cancels its run's context once a batch
// takes the cursor to cancelAt or past it.
type snapBackend struct {
	engine.BatchBackend
	snap     engine.Snapshot
	finished bool
	cancelAt uint64
	cancel   context.CancelFunc
}

func (b *snapBackend) StepBatch(s *engine.Session, evs []trace.Event) {
	b.BatchBackend.StepBatch(s, evs)
	if b.cancel != nil && s.Events >= b.cancelAt {
		b.cancel()
	}
}

func (b *snapBackend) Finish(s *engine.Session) engine.Result {
	res := b.BatchBackend.Finish(s)
	b.snap, b.finished = s.Snapshot(), true
	return res
}

// sweepBackends returns fresh backends of the four registered schemes, three
// geometries each: CTC sizes for H-LATCH, the timeout and the clear policy
// for S-LATCH, queue depths for both P-LATCH backends.
func sweepBackends() []*snapBackend {
	var bs []engine.Backend
	for _, n := range []int{4, 16, 64} {
		cfg := hlatch.DefaultConfig()
		cfg.Latch.CTCEntries = n
		bs = append(bs, hlatch.NewBackend(cfg))
	}
	for i := 0; i < 3; i++ {
		cfg := slatch.DefaultConfig()
		switch i {
		case 1:
			cfg.Latch.CTCEntries = 4
			cfg.Costs.TimeoutInstrs = 100
		case 2:
			cfg.Latch.Clear = latch.NoClear
		}
		bs = append(bs, slatch.NewBackend(cfg))
	}
	for _, d := range []int{16, 256, 1024} {
		cfg := platch.DefaultConfig()
		cfg.QueueDepth = d
		bs = append(bs, platch.NewBackend(cfg), platch.NewConcurrent(cfg))
	}
	out := make([]*snapBackend, len(bs))
	for i, b := range bs {
		out[i] = &snapBackend{BatchBackend: b.(engine.BatchBackend)}
	}
	return out
}

func asBackends(sbs []*snapBackend) []engine.Backend {
	bs := make([]engine.Backend, len(sbs))
	for i, b := range sbs {
		bs[i] = b
	}
	return bs
}

// TestRunSweepMatchesRunProfile is the sweep's oracle over the registered
// backends: one sweep of all four schemes at three geometries each, over
// apache, astar and sphinx3, whose streams churn taint and read near it,
// returns for every consumer the result and the Snapshot a solo RunProfile
// of the same backend produces.
func TestRunSweepMatchesRunProfile(t *testing.T) {
	opts := engine.RunOptions{Events: 40_000}
	for _, name := range []string{"apache", "astar", "sphinx3"} {
		p := workload.MustGet(name)
		swept := sweepBackends()
		got, err := engine.RunSweep(context.Background(), p, asBackends(swept), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, solo := range sweepBackends() {
			want, err := engine.RunProfile(context.Background(), solo, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(withoutRing(got[i]), withoutRing(want)) {
				t.Errorf("%s consumer %d (%s):\nsweep %+v\nsolo  %+v", name, i, solo.Name(), got[i], want)
			}
			if swept[i].snap != solo.snap {
				t.Errorf("%s consumer %d (%s) Snapshot:\nsweep %+v\nsolo  %+v", name, i, solo.Name(), swept[i].snap, solo.snap)
			}
		}
	}
}

// TestRunSweepCancellation cancels a long sweep of every registered backend
// mid-stream, from inside one consumer's batch as a deadline can expire:
// ctx.Err() surfaces, the stream stops within one poll interval, every
// backend is finalized, and the goroutine count settles, so each cplatch
// consumer joined its monitor.
func TestRunSweepCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bs := sweepBackends()
	const cancelAt = 50_000
	bs[len(bs)/2].cancelAt, bs[len(bs)/2].cancel = cancelAt, cancel
	res, err := engine.RunSweep(ctx, workload.MustGet("gcc"), asBackends(bs), engine.RunOptions{Events: 200_000_000})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res=%v err=%v, want nil results and context.Canceled", res, err)
	}
	for i, b := range bs {
		if !b.finished {
			t.Fatalf("consumer %d (%s) was not finalized", i, b.Name())
		}
		if b.snap.Events < cancelAt || b.snap.Events >= cancelAt+engine.CancelCheckEvents+engine.EventBatchSize {
			t.Fatalf("consumer %d (%s) stopped at event %d, canceled at %d", i, b.Name(), b.snap.Events, cancelAt)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel: %d -> %d", base, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunSweepConcurrent runs sweeps with cplatch consumers from two
// goroutines at once, over gcc and mysql, so they take and return idle
// sessions and spare modules concurrently. Every result must equal the
// serial sweep's.
func TestRunSweepConcurrent(t *testing.T) {
	profiles := []string{"gcc", "mysql"}
	run := func(name string) ([]engine.Result, error) {
		res, err := engine.RunSweep(context.Background(), workload.MustGet(name), asBackends(sweepBackends()), engine.RunOptions{Events: 30_000})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for i := range res {
			res[i] = withoutRing(res[i])
		}
		return res, nil
	}
	serial := make([][]engine.Result, len(profiles))
	for i, name := range profiles {
		res, err := run(name)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	const workers, rounds = 2, 3
	errs := make(chan error, workers*rounds*len(profiles))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds*len(profiles); k++ {
				i := (k + w) % len(profiles)
				res, err := run(profiles[i])
				if err == nil && !reflect.DeepEqual(res, serial[i]) {
					err = fmt.Errorf("%s on goroutine %d diverged from the serial sweep", profiles[i], w)
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
