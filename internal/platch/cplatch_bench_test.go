package platch

// This file measures the monitored-core half of the concurrent P-LATCH
// pipeline: the producer-side Step cost and its allocation count.

import (
	"testing"

	"latch/internal/engine"
	"latch/internal/ring"
	"latch/internal/shadow"
	"latch/internal/trace"
)

// producerHarness builds the monitored-core half of the concurrent backend
// in isolation: real filter, window model, and ring, but no monitor
// goroutine — the measuring goroutine drains the ring itself, so an
// allocation measurement sees the producer path alone.
type producerHarness struct {
	b     *cbackend
	s     *engine.Session
	evs   []trace.Event
	drain []monEvent
}

func newProducerHarness(tb testing.TB) *producerHarness {
	tb.Helper()
	b := NewConcurrent(DefaultConfig())
	s, err := engine.NewSession(b.Config())
	if err != nil {
		tb.Fatal(err)
	}
	// Taint a small region so the coarse check flags its accesses: the
	// flagged path (ring push included) is the expensive one.
	base := uint32(0x10000)
	for a := base; a < base+256; a++ {
		s.Shadow.Set(a, shadow.MustLabel(0))
	}
	b.init()
	b.mon = &monitor{ring: ring.MustNew[monEvent](4096, ring.DefaultBatch)}
	evs := make([]trace.Event, 512)
	for i := range evs {
		ev := trace.Event{PC: uint32(0x1000 + 4*i), IsMem: true, Size: 4}
		switch i % 4 {
		case 0: // flagged load
			ev.Addr = base + uint32(i)%256
			ev.Tainted = true
		case 1: // flagged store (exercises the pending-update FIFO)
			ev.Addr = base + uint32(i)%256
			ev.IsWrite = true
			ev.Tainted = true
		default: // clean access: the filter's fast path
			ev.Addr = uint32(0x40000) + uint32(i*64)
		}
		evs[i] = ev
	}
	return &producerHarness{b: b, s: s, evs: evs, drain: make([]monEvent, 4096)}
}

// step streams the prepared events through the producer-side Step once and
// drains the ring in place. Everything it calls is allocation-free in
// steady state.
func (h *producerHarness) step() {
	for _, ev := range h.evs {
		h.s.Events++
		h.b.Step(h.s, ev)
	}
	r := h.b.mon.ring
	r.Flush()
	for r.Len() > 0 {
		r.PopBatch(h.drain)
	}
}

// TestProducerStepZeroAllocs pins the monitored-core hot path: once warm,
// the concurrent backend's Step — coarse check, pending FIFO, window
// accounting, ring publish — performs zero heap allocations per event.
func TestProducerStepZeroAllocs(t *testing.T) {
	h := newProducerHarness(t)
	h.step() // warm caches, maps, and the window accumulator
	if avg := testing.AllocsPerRun(50, h.step); avg != 0 {
		t.Fatalf("producer-side Step allocates %.2f times per %d events, want 0", avg, len(h.evs))
	}
}

func BenchmarkCPlatchProducerStep(b *testing.B) {
	h := newProducerHarness(b)
	h.step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.step()
	}
}
