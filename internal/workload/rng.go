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
// continues the recurrence in place. Seeding stays math/rand's own. The
// Generator holds its rng by value and seeds it in place.
//
// No draw is converted to a float. Each of the generator's decisions is a
// rand.Rand.Float64() < p test against a constant p; the generator draws the
// Int63 behind that Float64 with unit and compares it with threshold(p),
// which decides the same for every draw.
type rng struct {
	vec [rngLen]uint64 // rngLen consecutive outputs, oldest first
	pos int            // index of the next output to serve
	end int            // no output in vec[pos:end] is a draw of unitLimit or more
}

// seed starts r at the first output of rand.NewSource(seed).
func (r *rng) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range r.vec {
		r.vec[i] = src.Uint64()
	}
	r.pos, r.end = 0, 0
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
	r.pos, r.end = 0, 0
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

// unitLimit is the least Int63 draw that float64 rounds to 2^63:
// rand.Rand.Float64 scales every draw from it up to 1.0 and draws again.
const unitLimit = 1<<63 - 1<<9

// unit returns the Int63 draw behind the next rand.Rand.Float64, which is
// float64(unit())/2^63. Like Float64 it draws again on a draw of unitLimit
// or more, so it consumes the same outputs. It stays small enough to
// inline by serving only outputs below end, which unitSlow has scanned.
func (r *rng) unit() uint64 {
	if r.pos < r.end {
		r.pos++
		return r.vec[r.pos-1] & (1<<63 - 1)
	}
	return r.unitSlow()
}

// unitSlow is unit once pos reaches end. It refills a spent vec, moves end
// to the first output from pos on that is a draw of unitLimit or more (or
// to rngLen), and serves the next output, drawing again past such a draw as
// Float64 does.
func (r *rng) unitSlow() uint64 {
	for {
		if r.pos == rngLen {
			r.refill()
		}
		r.end = rngLen
		for i, x := range r.vec[r.pos:] {
			if x&(1<<63-1) >= unitLimit {
				r.end = r.pos + i
				break
			}
		}
		x := r.vec[r.pos] & (1<<63 - 1)
		r.pos++
		if x < unitLimit {
			return x
		}
	}
}

// threshold returns the least x in [0, 2^63] with float64(x) >= p·2^63.
// Converting an integer to float64 is monotone and scaling by 2^63 is
// exact, so for every draw x, float64(x)/2^63 < p holds exactly when
// x < threshold(p): unit() < threshold(p) decides rand.Rand.Float64() < p.
// p must not be NaN, which no comparison holds for.
func threshold(p float64) uint64 {
	target := p * (1 << 63)
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid) >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
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
