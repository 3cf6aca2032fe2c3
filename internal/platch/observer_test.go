package platch

import (
	"testing"

	"latch/internal/telemetry"
)

func TestQueueSimEmitsStalls(t *testing.T) {
	// A burst longer than the queue at slow service must stall, and every
	// stall reports the full queue occupancy.
	evs := make([]bool, 50_000)
	for i := 0; i < 10_000; i++ {
		evs[i] = true
	}
	mx := telemetry.NewMetrics()
	depth := 256
	withObs := simulate(evs, depth, 3.38, mx)
	plain := simulate(evs, depth, 3.38, nil)
	if withObs != plain {
		t.Errorf("observer changed the overhead: %v vs %v", withObs, plain)
	}
	s := mx.Snapshot()
	if s.QueueStalls == 0 {
		t.Fatal("bursty stream produced no stall events")
	}
	if s.QueueMaxDepth != uint64(depth) {
		t.Errorf("QueueMaxDepth = %d, want %d (stalls occur at full depth)",
			s.QueueMaxDepth, depth)
	}
}

func TestQueueSimNoStallsWhenDrained(t *testing.T) {
	evs := make([]bool, 50_000)
	for i := 0; i < len(evs); i += 100 {
		evs[i] = true
	}
	mx := telemetry.NewMetrics()
	simulate(evs, 1024, 3.38, mx)
	if s := mx.Snapshot(); s.QueueStalls != 0 {
		t.Errorf("sparse stream stalled %d times", s.QueueStalls)
	}
}
