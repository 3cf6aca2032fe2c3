package ring

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestNewValidatesGeometry(t *testing.T) {
	for _, tc := range []struct {
		cap, batch int
		ok         bool
	}{
		{0, 0, true}, // defaults
		{8, 0, true}, // default batch clamps? (DefaultBatch > cap is invalid)
		{8, 8, true},
		{8, 1, true},
		{2, 2, true},
		{1, 1, false},  // capacity below 2
		{3, 1, false},  // not a power of two
		{8, 9, false},  // batch above capacity
		{8, -1, false}, // negative batch
		{-8, 1, false},
	} {
		_, err := New[int](tc.cap, tc.batch)
		// A zero batch with a small capacity resolves to DefaultBatch and
		// must then respect the batch <= capacity rule.
		wantOK := tc.ok
		if tc.cap != 0 && tc.batch == 0 && tc.cap < DefaultBatch {
			wantOK = false
		}
		if (err == nil) != wantOK {
			t.Errorf("New(cap=%d, batch=%d): err=%v, want ok=%v", tc.cap, tc.batch, err, wantOK)
		}
	}
	r := MustNew[int](16, 4)
	if r.Cap() != 16 {
		t.Fatalf("Cap() = %d, want 16", r.Cap())
	}
}

// TestSingleThreadedOrder drives producer and consumer from one goroutine
// through several wraparounds, checking order and end-of-stream semantics.
func TestSingleThreadedOrder(t *testing.T) {
	r := MustNew[int](8, 8)
	next := 0
	for round := 0; round < 40; round++ {
		n := round % 8
		for i := 0; i < n; i++ {
			r.Push(next + i)
		}
		r.Flush()
		for i := 0; i < n; i++ {
			v, ok := r.Pop()
			if !ok || v != next+i {
				t.Fatalf("round %d: Pop = (%d, %v), want (%d, true)", round, v, ok, next+i)
			}
		}
		next += n
	}
	r.Close()
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop after Close+drain reported an element")
	}
	st := r.Stats()
	if st.Pushes != uint64(next) || st.Pops != uint64(next) {
		t.Fatalf("stats pushes/pops = %d/%d, want %d", st.Pushes, st.Pops, next)
	}
	if st.OccupancyMax > uint64(r.Cap()) {
		t.Fatalf("occupancy max %d exceeds capacity %d", st.OccupancyMax, r.Cap())
	}
}

// TestBatchedPublishVisibility pins the batching contract: pushes below the
// batch threshold are invisible until Flush (or a batch boundary) publishes
// them.
func TestBatchedPublishVisibility(t *testing.T) {
	r := MustNew[int](16, 4)
	r.Push(1)
	r.Push(2)
	if got := r.Len(); got != 0 {
		t.Fatalf("Len() = %d before publish, want 0", got)
	}
	r.Push(3)
	r.Push(4) // fourth push crosses the batch boundary
	if got := r.Len(); got != 4 {
		t.Fatalf("Len() = %d after batch publish, want 4", got)
	}
	r.Push(5)
	r.Flush()
	if got := r.Len(); got != 5 {
		t.Fatalf("Len() = %d after Flush, want 5", got)
	}
}

func TestCloseFlushesPending(t *testing.T) {
	r := MustNew[int](16, 16)
	r.Push(7)
	r.Close()
	if v, ok := r.Pop(); !ok || v != 7 {
		t.Fatalf("Pop = (%d, %v), want (7, true)", v, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("expected end-of-stream")
	}
	// Close is idempotent; Push after Close panics.
	r.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Push after Close did not panic")
		}
	}()
	r.Push(8)
}

// runPipe pushes count sequenced values through a ring from a producer
// goroutine while the calling goroutine consumes with randomized batch
// sizes, returning the consumed sequence.
func runPipe(t *testing.T, capacity, batch, count int, seed int64) []uint64 {
	t.Helper()
	r := MustNew[uint64](capacity, batch)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prng := rand.New(rand.NewSource(seed))
		for i := 0; i < count; i++ {
			r.Push(uint64(i))
			if prng.Intn(64) == 0 {
				r.Flush() // exercise partial-batch publications
			}
		}
		r.Close()
	}()
	got := make([]uint64, 0, count)
	prng := rand.New(rand.NewSource(seed + 1))
	buf := make([]uint64, capacity)
	for {
		n := r.PopBatch(buf[:1+prng.Intn(len(buf))])
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	wg.Wait()
	return got
}

// TestConcurrentStress is the race tier's lost/duplicated/reordered-event
// check: a GOMAXPROCS sweep over a producer/consumer pair, asserting the
// consumer sees exactly the pushed sequence. Run under -race (`make race`)
// this also proves the publication protocol establishes happens-before for
// the slot memory itself.
func TestConcurrentStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, geom := range []struct{ capacity, batch, count int }{
			// Tiny rings ping-pong on every slot, so they get shorter
			// streams; the production geometry takes the long one.
			{2, 1, 20_000}, {64, 64, 100_000}, {1024, 64, 200_000},
		} {
			count := geom.count
			if testing.Short() {
				count /= 10
			}
			got := runPipe(t, geom.capacity, geom.batch, count, int64(procs*1000+geom.capacity))
			if len(got) != count {
				t.Fatalf("procs=%d cap=%d: consumed %d events, want %d (lost or duplicated)",
					procs, geom.capacity, len(got), count)
			}
			for i, v := range got {
				if v != uint64(i) {
					t.Fatalf("procs=%d cap=%d: event %d is %d (reordered or duplicated)",
						procs, geom.capacity, i, v)
				}
			}
		}
	}
}

// TestBackpressureStalls forces a full ring and checks the producer records
// the stall and completes once the consumer drains. The consumer pops
// nothing until the published occupancy reaches the capacity, and with a
// publish batch of 3 the fourth push stays unpublished until the fifth
// finds the ring full and publishes it before waiting: a full published
// ring therefore means the producer is inside its stall, whatever the
// scheduler does. A Push that never publishes before stalling hangs the
// wait below, which fails after 10 s.
func TestBackpressureStalls(t *testing.T) {
	r := MustNew[int](4, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 64; i++ {
			r.Push(i)
		}
		r.Close()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for r.Len() < r.Cap() {
		if time.Now().After(deadline) {
			t.Fatalf("published occupancy stuck at %d of %d: the producer never published before stalling", r.Len(), r.Cap())
		}
		runtime.Gosched()
	}
	seen := 0
	for {
		v, ok := r.Pop()
		if !ok {
			break
		}
		if v != seen {
			t.Fatalf("event %d is %d", seen, v)
		}
		seen++
	}
	wg.Wait()
	if seen != 64 {
		t.Fatalf("consumed %d, want 64", seen)
	}
	if st := r.Stats(); st.ProducerStalls == 0 {
		t.Error("producer never stalled on a 4-slot ring under a 64-push burst")
	}
}

// FuzzRingSPSC cross-checks the lock-free ring against a mutex-guarded
// slice model under fuzzer-chosen geometry and randomized producer flush /
// consumer batch patterns: every pushed element must come out exactly once,
// in order.
func FuzzRingSPSC(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(16), uint16(500))
	f.Add(int64(2), uint8(1), uint8(1), uint16(1000))
	f.Add(int64(3), uint8(7), uint8(64), uint16(2000))
	f.Add(int64(42), uint8(10), uint8(3), uint16(4000))
	f.Fuzz(func(t *testing.T, seed int64, capLog, batchRaw uint8, countRaw uint16) {
		capacity := 2 << (capLog % 10)      // 2..1024
		batch := 1 + int(batchRaw)%capacity // 1..capacity
		count := int(countRaw)

		// Mutex-guarded slice model: the producer appends each value to the
		// model under a lock immediately before pushing it, so the model
		// holds the authoritative sequence whatever the interleaving.
		var (
			mu    sync.Mutex
			model []uint64
		)
		r := MustNew[uint64](capacity, batch)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			prng := rand.New(rand.NewSource(seed))
			for i := 0; i < count; i++ {
				v := prng.Uint64()
				mu.Lock()
				model = append(model, v)
				mu.Unlock()
				r.Push(v)
				if prng.Intn(32) == 0 {
					r.Flush()
				}
			}
			r.Close()
		}()

		prng := rand.New(rand.NewSource(seed ^ 0x5eed))
		buf := make([]uint64, capacity)
		var got []uint64
		for {
			var n int
			if prng.Intn(2) == 0 {
				if v, ok := r.Pop(); ok {
					got = append(got, v)
					n = 1
				}
			} else {
				n = r.PopBatch(buf[:1+prng.Intn(len(buf))])
				got = append(got, buf[:n]...)
			}
			if n == 0 {
				break
			}
		}
		wg.Wait()

		mu.Lock()
		defer mu.Unlock()
		if len(got) != len(model) {
			t.Fatalf("consumed %d elements, model has %d", len(got), len(model))
		}
		for i := range got {
			if got[i] != model[i] {
				t.Fatalf("element %d: ring %d, model %d", i, got[i], model[i])
			}
		}
		if st := r.Stats(); st.Pushes != uint64(count) || st.Pops != uint64(count) ||
			st.OccupancyMax > uint64(capacity) {
			t.Fatalf("stats %+v inconsistent with %d pushed on a %d-slot ring", st, count, capacity)
		}
	})
}
