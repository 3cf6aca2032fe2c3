package enginetest

import (
	"context"
	"reflect"
	"testing"

	"latch/internal/engine"
	"latch/internal/platch"
	"latch/internal/trace"
	"latch/internal/workload"

	_ "latch/internal/hlatch"
	_ "latch/internal/slatch"
)

// stepOnly hides a backend's StepBatch so the driver takes the per-event
// path — the reference semantics batched delivery must reproduce.
type stepOnly struct {
	engine.Backend
}

func (s stepOnly) Step(sess *engine.Session, ev trace.Event) { s.Backend.Step(sess, ev) }

// runPerEvent is the driver's reference semantics: the same set-up as
// engine.RunProfileSession on a fresh session, with every event stepped the
// moment the generator produces it.
func runPerEvent(t *testing.T, b engine.Backend, p workload.Profile, events uint64) engine.Result {
	t.Helper()
	s, err := engine.NewSession(b.Config())
	if err != nil {
		t.Fatal(err)
	}
	return runOn(t, s, b, p, events)
}

// runOn is runPerEvent on s, a session NewSession or Recycle has just
// prepared for b's geometry.
func runOn(t *testing.T, s *engine.Session, b engine.Backend, p workload.Profile, events uint64) engine.Result {
	t.Helper()
	g, err := workload.NewGeneratorOn(p, s.Shadow)
	if err != nil {
		t.Fatal(err)
	}
	s.Module.ResetStats()
	s.Profile = p
	s.Target = events
	if err := b.Init(s); err != nil {
		t.Fatal(err)
	}
	g.Run(events, trace.SinkFunc(func(ev trace.Event) {
		s.Events++
		b.Step(s, ev)
	}))
	return b.Finish(s)
}

// withoutRing clears a cplatch result's Ring stats, which report real,
// scheduling-dependent pipeline occupancy; everything else (flag digest,
// monitor taint hash, shard queues) must match exactly.
func withoutRing(r engine.Result) engine.Result {
	if cr, ok := r.(platch.ConcurrentResult); ok {
		cr.Ring = platch.RingStats{}
		return cr
	}
	return r
}

// TestBatchBackendEquivalence: every backend that opts into batched delivery
// must produce a result identical to its own per-event Step over the same
// workload, and both must equal stepping each event as it is generated —
// batching is a delivery optimization, never a semantic change.
func TestBatchBackendEquivalence(t *testing.T) {
	for _, pname := range []string{"gcc", "apache"} {
		p, err := workload.Get(pname)
		if err != nil {
			t.Fatal(err)
		}
		batchEquivalence(t, p)
	}
}

func batchEquivalence(t *testing.T, p workload.Profile) {
	const events = 200_000
	opts := engine.RunOptions{Events: events}
	for _, name := range []string{"slatch", "hlatch", "platch", "cplatch"} {
		sch, err := engine.Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		batched := sch.New()
		if _, ok := batched.(engine.BatchBackend); !ok {
			t.Errorf("%s does not implement BatchBackend", name)
			continue
		}
		rb, err := engine.RunProfile(context.Background(), batched, p, opts)
		if err != nil {
			t.Fatalf("%s batched: %v", name, err)
		}
		rs, err := engine.RunProfile(context.Background(), stepOnly{sch.New()}, p, opts)
		if err != nil {
			t.Fatalf("%s stepped: %v", name, err)
		}
		rb, rs = withoutRing(rb), withoutRing(rs)
		if !reflect.DeepEqual(rb, rs) {
			t.Errorf("%s/%s: batched and per-event results diverge\n batched: %+v\n stepped: %+v", p.Name, name, rb, rs)
		}
		if ref := withoutRing(runPerEvent(t, sch.New(), p, events)); !reflect.DeepEqual(rb, ref) {
			t.Errorf("%s/%s: driver and as-generated delivery diverge\n driver:    %+v\n reference: %+v", p.Name, name, rb, ref)
		}
	}
}
