// Package ring provides the lock-free single-producer single-consumer ring
// buffer that decouples the monitored core from the DIFT monitor in the
// concurrent P-LATCH backend (§5.2's commit-log FIFO, realized).
//
// The design follows the classic bounded SPSC queue used by decoupled
// hardware monitors: a power-of-two slot array indexed by free-running
// head/tail counters, with the producer and consumer each caching the
// opposing index so the shared cache lines are touched only when a batch
// boundary — not every element — demands it. Specifically:
//
//   - the shared head (consumer progress) and tail (published producer
//     progress) atomics live on their own cache lines, padded so producer
//     and consumer never false-share;
//   - the producer accumulates pushes locally and publishes the tail once
//     per batch (or on Flush/Close), amortizing the store-release and the
//     consumer's cache miss over Batch elements;
//   - the consumer likewise consumes runs of published elements and
//     re-publishes its head once per batch, so a full-speed stream costs
//     two shared-line transfers per batch, not per event.
//
// Blocking is cooperative: a full ring stalls the producer (the monitored
// core's FIFO-full backpressure) and an empty ring parks the consumer, both
// through a spin -> Gosched -> sleep backoff that burns no CPU when the
// other side is away. Close makes the stream finite: after Close the
// consumer drains the remaining elements and then sees end-of-stream.
//
// The zero value is not usable; construct with New.
package ring

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the default slot count.
const DefaultCapacity = 1024

// DefaultBatch is the default publish granularity.
const DefaultBatch = 64

// backoff is the cooperative wait ladder shared by a stalled producer and a
// starved consumer: spin briefly (the partner is usually mid-batch), yield
// the P a few times, then sleep so an abandoned ring costs ~nothing.
func backoff(spins *int) {
	*spins++
	switch {
	case *spins < 64:
		// Busy-spin: the expected wait is a few publishes.
	case *spins < 1024:
		runtime.Gosched()
	default:
		time.Sleep(20 * time.Microsecond)
	}
}

// pad keeps the neighbouring fields on distinct cache lines (64-byte lines;
// 128 covers adjacent-line prefetchers).
type pad [128]byte

// Stats are a ring's lifetime counters. Producer-side fields are owned by
// the producing goroutine and consumer-side fields by the consuming one;
// call Stats only after both are quiescent (after Close and the consumer
// join) or from the owning side.
type Stats struct {
	// Pushes is the total number of elements pushed.
	Pushes uint64
	// Pops is the total number of elements consumed.
	Pops uint64
	// Flushes is the number of tail publications (batch boundaries plus
	// explicit flushes).
	Flushes uint64
	// ProducerStalls counts full-ring stalls: pushes that had to wait for
	// the consumer — the FIFO-full backpressure events of §5.2.
	ProducerStalls uint64
	// ConsumerWaits counts empty-ring waits by the consumer.
	ConsumerWaits uint64
	// OccupancySum accumulates the ring occupancy sampled at each tail
	// publication; OccupancySum/Flushes is the mean published occupancy.
	OccupancySum uint64
	// OccupancyMax is the highest occupancy observed at a publication.
	OccupancyMax uint64
}

// SPSC is a bounded lock-free single-producer single-consumer ring. Exactly
// one goroutine may call the producer methods (Push, Flush, Close) and
// exactly one — possibly different — goroutine the consumer methods (Pop,
// PopBatch). The element type is copied by value through the ring.
type SPSC[T any] struct {
	buf   []T
	mask  uint64
	batch uint64

	_      pad
	head   atomic.Uint64 // consumer progress, published
	_      pad
	tail   atomic.Uint64 // producer progress, published
	_      pad
	closed atomic.Bool
	_      pad

	// Producer-owned working set.
	prod struct {
		tail       uint64 // includes unpublished pushes
		pending    uint64 // pushes since the last publication
		cachedHead uint64
		stalls     uint64
		flushes    uint64
		occSum     uint64
		occMax     uint64
	}
	_ pad

	// Consumer-owned working set.
	cons struct {
		head       uint64 // consumed position, possibly unpublished
		published  uint64 // last value stored into head
		cachedTail uint64
		waits      uint64
	}
}

// New builds a ring with the given slot count and publish batch. The
// capacity must be a power of two (>= 2); the batch must be in
// [1, capacity]. Zero selects the package default for either.
func New[T any](capacity, batch int) (*SPSC[T], error) {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	if batch == 0 {
		batch = DefaultBatch
	}
	if capacity < 2 || bits.OnesCount(uint(capacity)) != 1 {
		return nil, fmt.Errorf("ring: capacity %d is not a power of two >= 2", capacity)
	}
	if batch < 1 || batch > capacity {
		return nil, fmt.Errorf("ring: batch %d outside [1, %d]", batch, capacity)
	}
	return &SPSC[T]{
		buf:   make([]T, capacity),
		mask:  uint64(capacity) - 1,
		batch: uint64(batch),
	}, nil
}

// MustNew is New, panicking on a bad geometry.
func MustNew[T any](capacity, batch int) *SPSC[T] {
	r, err := New[T](capacity, batch)
	if err != nil {
		panic(err)
	}
	return r
}

// Cap returns the slot count.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Len returns the published occupancy. It is exact from either endpoint's
// own perspective and a lower bound from anywhere else (unpublished batches
// are invisible).
func (r *SPSC[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Push appends v, blocking while the ring is full (the monitored core
// stalling on a full commit FIFO). Push after Close panics: a closed ring
// promised its consumer a finite stream.
func (r *SPSC[T]) Push(v T) {
	if r.closed.Load() {
		panic("ring: Push after Close")
	}
	if r.prod.tail-r.prod.cachedHead >= uint64(len(r.buf)) {
		// The cached head is stale or the ring is genuinely full. A full
		// ring with unpublished pushes would deadlock — the consumer cannot
		// see them — so publish before waiting.
		spins := 0
		for {
			r.prod.cachedHead = r.head.Load()
			if r.prod.tail-r.prod.cachedHead < uint64(len(r.buf)) {
				break
			}
			if r.prod.pending > 0 {
				r.publish()
			}
			if spins == 0 {
				r.prod.stalls++
			}
			backoff(&spins)
		}
	}
	r.buf[r.prod.tail&r.mask] = v
	r.prod.tail++
	r.prod.pending++
	if r.prod.pending >= r.batch {
		r.publish()
	}
}

// publish makes the pending pushes visible and samples the occupancy the
// publication produced.
func (r *SPSC[T]) publish() {
	r.tail.Store(r.prod.tail)
	r.prod.pending = 0
	r.prod.flushes++
	occ := r.prod.tail - r.head.Load()
	r.prod.occSum += occ
	if occ > r.prod.occMax {
		r.prod.occMax = occ
	}
}

// Flush publishes any pending pushes immediately.
func (r *SPSC[T]) Flush() {
	if r.prod.pending > 0 {
		r.publish()
	}
}

// Close flushes and marks the stream finished. The consumer drains whatever
// remains and then sees end-of-stream. Close is idempotent.
func (r *SPSC[T]) Close() {
	r.Flush()
	r.closed.Store(true)
}

// available blocks until at least one published element is visible,
// returning the visible run length, or returns 0 at end-of-stream (closed
// and drained).
func (r *SPSC[T]) available() int {
	if r.cons.cachedTail != r.cons.head {
		return int(r.cons.cachedTail - r.cons.head)
	}
	spins := 0
	for {
		r.cons.cachedTail = r.tail.Load()
		if r.cons.cachedTail != r.cons.head {
			return int(r.cons.cachedTail - r.cons.head)
		}
		if r.closed.Load() {
			// Close publishes before setting the flag, so one post-flag
			// re-read of tail observes the final elements.
			r.cons.cachedTail = r.tail.Load()
			if r.cons.cachedTail == r.cons.head {
				return 0
			}
			continue
		}
		// Publish our progress before parking so a full-ring producer is
		// never waiting on an unpublished head.
		r.publishHead()
		if spins == 0 {
			r.cons.waits++
		}
		backoff(&spins)
	}
}

// publishHead makes the consumer's progress visible to the producer.
func (r *SPSC[T]) publishHead() {
	if r.cons.published != r.cons.head {
		r.head.Store(r.cons.head)
		r.cons.published = r.cons.head
	}
}

// Pop removes the next element, blocking while the ring is empty. It
// returns ok=false only at end-of-stream: the ring is closed and fully
// drained.
func (r *SPSC[T]) Pop() (v T, ok bool) {
	if r.available() == 0 {
		return v, false
	}
	v = r.buf[r.cons.head&r.mask]
	r.cons.head++
	if r.cons.head-r.cons.published >= r.batch || r.cons.head == r.cons.cachedTail {
		// Publish at batch boundaries, and eagerly on draining the visible
		// run — an empty ring's producer must see the space immediately.
		r.publishHead()
	}
	return v, true
}

// PopBatch fills dst with up to len(dst) elements, blocking until at least
// one is available. It returns 0 only at end-of-stream. The consumed run is
// republished to the producer at batch granularity.
func (r *SPSC[T]) PopBatch(dst []T) int {
	avail := r.available()
	if avail == 0 {
		return 0
	}
	n := min(len(dst), avail)
	for i := 0; i < n; i++ {
		dst[i] = r.buf[(r.cons.head+uint64(i))&r.mask]
	}
	r.cons.head += uint64(n)
	if r.cons.head-r.cons.published >= r.batch || r.cons.head == r.cons.cachedTail {
		r.publishHead()
	}
	return n
}

// Stats reads the lifetime counters; see the Stats ownership rule.
func (r *SPSC[T]) Stats() Stats {
	return Stats{
		Pushes:         r.prod.tail,
		Pops:           r.cons.head,
		Flushes:        r.prod.flushes,
		ProducerStalls: r.prod.stalls,
		ConsumerWaits:  r.cons.waits,
		OccupancySum:   r.prod.occSum,
		OccupancyMax:   r.prod.occMax,
	}
}
