package workload

import "math/rand"

// math/rand's source is an additive lagged Fibonacci generator: output k is
// output k-rngLen plus output k-rngTap, mod 2^64. Its whole state after
// rngLen outputs is therefore exactly those outputs.
const (
	rngLen = 607
	rngTap = 273
)

// rng reproduces rand.New(rand.NewSource(seed)) draw for draw as a concrete
// type, so the generator's draws are direct calls instead of calls through
// the Source interface. It serves the source's first rngLen outputs, then
// continues the recurrence in place. Seeding stays math/rand's own.
type rng struct {
	vec [rngLen]uint64 // rngLen consecutive outputs, oldest first
	pos int            // index of the next output to serve
}

func newRNG(seed int64) *rng {
	src := rand.NewSource(seed).(rand.Source64)
	r := &rng{}
	for i := range r.vec {
		r.vec[i] = src.Uint64()
	}
	return r
}

// refill replaces vec with the next rngLen outputs. The first rngTap of them
// read their lag-rngTap term from the old outputs, the rest from the new.
func (r *rng) refill() {
	for i := 0; i < rngTap; i++ {
		r.vec[i] += r.vec[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		r.vec[i] += r.vec[i-rngTap]
	}
	r.pos = 0
}

// Uint64 returns the source's next output.
func (r *rng) Uint64() uint64 {
	if r.pos == rngLen {
		r.refill()
	}
	x := r.vec[r.pos]
	r.pos++
	return x
}

// Int63 is rand.Rand.Int63.
func (r *rng) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// Float64 is rand.Rand.Float64: Int63 scaled to [0, 1), resampled on 1.0.
func (r *rng) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn is rand.Rand.Intn, including its rejection sampling. It panics if
// n <= 0.
func (r *rng) Intn(n int) int {
	if n <= 0 {
		panic("workload: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.int31n(int32(n)))
	}
	return int(r.int63n(int64(n)))
}

// int31n is rand.Rand.Int31n, with Int31 = Int63>>32.
func (r *rng) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(r.Int63()>>32) & (n - 1)
	}
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(r.Int63() >> 32)
	for v > limit {
		v = int32(r.Int63() >> 32)
	}
	return v % n
}

// int63n is rand.Rand.Int63n, reached only for n above 2^31-1.
func (r *rng) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > limit {
		v = r.Int63()
	}
	return v % n
}
