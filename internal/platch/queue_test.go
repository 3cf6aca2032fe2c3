package platch

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"latch/internal/telemetry"
	"latch/internal/workload"
)

// queueSim is the reference queue simulation, run over a stored per-event
// enqueue record; stepping a queue per event must reproduce it bit for bit.
func queueSim(enqueued []bool, depth int, serviceCycles float64, obs telemetry.Observer) float64 {
	if len(enqueued) == 0 {
		return 0
	}
	ring := make([]float64, depth)
	head, count := 0, 0
	var now float64
	var srvEnd float64
	for _, enq := range enqueued {
		now++
		if !enq {
			continue
		}
		for count > 0 && ring[head] <= now {
			head = (head + 1) % depth
			count--
		}
		if count == depth {
			if obs != nil {
				obs.QueueStall(count)
			}
			now = ring[head]
			head = (head + 1) % depth
			count--
		}
		start := srvEnd
		if start < now {
			start = now
		}
		srvEnd = start + serviceCycles
		ring[(head+count)%depth] = srvEnd
		count++
	}
	total := now
	if srvEnd > total {
		total = srvEnd
	}
	return total/float64(len(enqueued)) - 1
}

// simulate steps a queue over an enqueue record.
func simulate(enqueued []bool, depth int, service float64, obs telemetry.Observer) float64 {
	q := newQueue(depth, service, obs)
	for _, enq := range enqueued {
		q.step(enq)
	}
	return q.overhead()
}

// enqueuePatterns returns enqueue records that keep a queue empty, fill it
// in bursts, and saturate it.
func enqueuePatterns() map[string][]bool {
	rng := rand.New(rand.NewSource(1))
	out := map[string][]bool{}
	for _, p := range []float64{0.01, 0.2, 0.29, 0.5, 1} {
		evs := make([]bool, 60_000)
		for i := range evs {
			evs[i] = rng.Float64() < p
		}
		out[fmt.Sprintf("p=%.2f", p)] = evs
	}
	bursty := make([]bool, 60_000)
	for i := range bursty {
		bursty[i] = (i/3000)%4 == 0
	}
	out["bursty"] = bursty
	out["empty"] = nil
	out["one"] = []bool{true}
	return out
}

// TestQueueStepMatchesQueueSim: stepping the queue per event gives queueSim's
// overhead under == on float64, and reports the same stalls.
func TestQueueStepMatchesQueueSim(t *testing.T) {
	for name, evs := range enqueuePatterns() {
		for _, depth := range []int{1, 16, 1024} {
			for _, service := range []float64{1.36, 3.38} {
				got, want := telemetry.NewMetrics(), telemetry.NewMetrics()
				g := simulate(evs, depth, service, got)
				w := queueSim(evs, depth, service, want)
				if g != w {
					t.Errorf("%s depth %d service %v: step overhead %v, queueSim %v", name, depth, service, g, w)
				}
				gs, ws := got.Snapshot(), want.Snapshot()
				if gs.QueueStalls != ws.QueueStalls || gs.QueueMaxDepth != ws.QueueMaxDepth {
					t.Errorf("%s depth %d service %v: %d stalls (max depth %d), queueSim %d (%d)",
						name, depth, service, gs.QueueStalls, gs.QueueMaxDepth, ws.QueueStalls, ws.QueueMaxDepth)
				}
			}
		}
	}
}

// TestBaselineQueueOverheadMatchesQueueSim: the unfiltered baseline is
// queueSim over n enqueued instructions at both reported service rates.
func TestBaselineQueueOverheadMatchesQueueSim(t *testing.T) {
	cfg := DefaultConfig()
	for _, n := range []uint64{0, 1, 1000, 250_000} {
		all := make([]bool, n)
		for i := range all {
			all[i] = true
		}
		simple, optimized := BaselineQueueOverhead(n, cfg)
		if w := queueSim(all, cfg.QueueDepth, 1+cfg.SimpleLBAOverhead, nil); simple != w {
			t.Errorf("n=%d: simple baseline %v, queueSim %v", n, simple, w)
		}
		if w := queueSim(all, cfg.QueueDepth, 1+cfg.OptimizedLBAOverhead, nil); optimized != w {
			t.Errorf("n=%d: optimized baseline %v, queueSim %v", n, optimized, w)
		}
	}
}

// TestRunMemoryFlat: platch's memory no longer grows with the stream. A
// 2M-event run allocates at most 256 KiB more than a 200k-event one.
func TestRunMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("2M-event run")
	}
	alloc := func(events uint64) uint64 {
		cfg := DefaultConfig()
		cfg.Events = events
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(workload.MustGet("mysql"), cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := alloc(200_000), alloc(2_000_000)
	t.Logf("200k events: %d B, 2M events: %d B", short, long)
	if long > short+256<<10 {
		t.Fatalf("2M events allocated %d B, 200k events %d B: %d B more", long, short, long-short)
	}
}
