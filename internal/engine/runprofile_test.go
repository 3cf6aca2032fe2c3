package engine_test

import (
	"context"
	"errors"
	"testing"

	"latch/internal/engine"
	"latch/internal/latch"
	"latch/internal/trace"
	"latch/internal/workload"
)

// fakeBatchBackend is fakeBackend with the BatchBackend extension: it
// advances the cursor and steps each event of a batch in order, as the
// interface contract requires. When cancel is set, it cancels the run's
// context once the cursor reaches cancelAt.
type fakeBatchBackend struct {
	fakeBackend
	batches  int
	finished bool
	cancelAt uint64
	cancel   context.CancelFunc
}

func (b *fakeBatchBackend) StepBatch(s *engine.Session, evs []trace.Event) {
	b.batches++
	for _, ev := range evs {
		s.Events++
		b.Step(s, ev)
		if b.cancel != nil && s.Events == b.cancelAt {
			b.cancel()
		}
	}
}

func (b *fakeBatchBackend) Finish(s *engine.Session) engine.Result {
	b.finished = true
	return b.fakeBackend.Finish(s)
}

var _ engine.BatchBackend = (*fakeBatchBackend)(nil)

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunProfileBatchedMatchesPerEvent: batched delivery must hand a
// BatchBackend the same events, in the same order and against the same
// shadow state, as per-event delivery hands a plain Backend.
func TestRunProfileBatchedMatchesPerEvent(t *testing.T) {
	p := mustProfile(t, "gcc")
	const events = 50_000
	opts := engine.RunOptions{Events: events}
	want, ws, err := engine.RunProfileSession(context.Background(), &fakeBackend{cfg: latch.DefaultConfig()}, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := &fakeBatchBackend{fakeBackend: fakeBackend{cfg: latch.DefaultConfig()}}
	got, gs, err := engine.RunProfileSession(context.Background(), b, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("batched result %+v, per-event %+v", got, want)
	}
	if gs.Snapshot() != ws.Snapshot() {
		t.Fatalf("batched session %+v, per-event %+v", gs.Snapshot(), ws.Snapshot())
	}
	if b.steps != events || b.batches == 0 || b.batches > events/2 {
		t.Fatalf("steps=%d batches=%d: delivery was not batched", b.steps, b.batches)
	}
}

// TestRunProfileBatchedCancel: a batched run canceled mid-stream stops
// within one poll interval (plus the batch in flight), still finalizes its
// backend, and reports the context's error instead of a partial result.
func TestRunProfileBatchedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 10_000
	b := &fakeBatchBackend{fakeBackend: fakeBackend{cfg: latch.DefaultConfig()}, cancelAt: cancelAt, cancel: cancel}
	res, s, err := engine.RunProfileSession(ctx, b, mustProfile(t, "gcc"), engine.RunOptions{Events: 500_000})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res=%v err=%v, want nil result and context.Canceled", res, err)
	}
	if !b.finished {
		t.Fatal("canceled run skipped Finish")
	}
	if s.Events < cancelAt || s.Events > cancelAt+engine.CancelCheckEvents+engine.EventBatchSize {
		t.Fatalf("stream stopped at event %d, canceled at %d", s.Events, cancelAt)
	}
}
