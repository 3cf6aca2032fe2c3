package platch

import (
	"testing"

	"latch/internal/workload"
)

func TestPendingFIFOBasics(t *testing.T) {
	f := newPendingFIFO(2)
	f.push(10, 100)
	f.push(20, 200)
	if !f.pending(10) || !f.pending(20) || f.pending(30) {
		t.Fatal("membership wrong")
	}
	// Overflow retires the oldest.
	f.push(30, 300)
	if f.pending(10) || !f.pending(20) || !f.pending(30) {
		t.Fatal("overflow did not retire oldest")
	}
	// Expiry retires in order.
	f.retire(250)
	if f.pending(20) || !f.pending(30) {
		t.Fatal("retire wrong")
	}
	f.retire(1000)
	if f.pending(30) || f.count != 0 {
		t.Fatal("final retire wrong")
	}
}

// TestPendingRing drives the FIFO the way Parallel does: entries carry no
// expiry and leave by pop, one per store the monitor processes.
func TestPendingRing(t *testing.T) {
	empty := newPendingFIFO(1)
	empty.pop() // popping an empty ring is a no-op
	if empty.count != 0 || empty.full() {
		t.Fatal("pop on empty corrupted state")
	}
	r := newPendingFIFO(2)
	r.push(1, 0)
	r.push(2, 0)
	if !r.full() {
		t.Fatal("two entries should fill a capacity-2 ring")
	}
	r.push(3, 0) // evicts 1
	if r.pending(1) || !r.pending(2) || !r.pending(3) {
		t.Fatal("ring membership wrong")
	}
	r.pop()
	if r.pending(2) || !r.pending(3) || r.count != 1 {
		t.Fatal("pop did not retire oldest")
	}
}

func TestPendingFIFODuplicateDomains(t *testing.T) {
	f := newPendingFIFO(4)
	f.push(7, 100)
	f.push(7, 200)
	f.retire(150) // first entry expires, second still live
	if !f.pending(7) {
		t.Fatal("duplicate domain retired too early")
	}
	f.retire(250)
	if f.pending(7) {
		t.Fatal("domain still pending after both expired")
	}
}

func TestPendingExtraPositivesAreRare(t *testing.T) {
	// The paper's claim: taint locality makes CTT changes rare, so the
	// conservative pending-destination protection costs almost nothing. On
	// the calibrated streams it costs nothing at all: none of them reaches
	// the pending-update FIFO, so any extra positive is a regression. The
	// FIFO's own path is covered by TestParallelPendingFIFOCatchesHijack
	// and by cplatch's hand-built stream.
	for _, name := range []string{"apache", "mysql", "sphinx3", "gcc"} {
		cfg := DefaultConfig()
		cfg.Events = 300_000
		r, err := Run(workload.MustGet(name), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.PendingExtraPositives != 0 {
			t.Errorf("%s: pending protection caused %d extra enqueues over %d events, want 0",
				name, r.PendingExtraPositives, r.Events)
		}
	}
}
