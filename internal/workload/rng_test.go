package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestRNGMatchesMathRand: the generator's concrete RNG is math/rand's stream,
// draw for draw, across several buffer refills and every draw kind the
// generator (or a JSON profile's footprint) can reach. unit is checked
// against rand.Rand.Float64, whose draw it returns unscaled.
func TestRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 1 << 40, -1 << 62, 1<<31 - 1}
	ns := []int{1, 2, 16, 1024, 1 << 30, 3, 7, 1000, 4095, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<33 + 5, 1 << 40, 1<<62 + 1}
	const draws = 4 * rngLen // at least three refills
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		var got rng
		got.seed(seed)
		for i := 0; i < draws; i++ {
			switch i % 4 {
			case 0:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, i, g, w)
				}
			case 1:
				if g, w := float64(got.unit())/(1<<63), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: unit/2^63 %v, math/rand Float64 %v", seed, i, g, w)
				}
			case 2:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, g, w)
				}
			case 3:
				n := ns[(i/4)%len(ns)]
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, i, n, g, w)
				}
			}
		}
	}
}

// TestRNGUnitDrawsAgainLikeFloat64: unitLimit is the least draw float64
// rounds to 2^63, and unit draws again past such a draw, whether it meets it
// first in an output block, on its fast path, just before a refill, or
// after a refill another draw kind made; so it returns and consumes what
// rand.Rand.Float64's own loop does.
func TestRNGUnitDrawsAgainLikeFloat64(t *testing.T) {
	const roundsUp = 1<<63 - 1<<9 // float64 rounds it, and no lesser draw, to 2^63
	if unitLimit != roundsUp || float64(uint64(roundsUp)) != 1<<63 || float64(uint64(roundsUp-1)) >= 1<<63 {
		t.Fatalf("unitLimit %#x, want %#x, the least draw float64 rounds to 2^63", uint64(unitLimit), uint64(roundsUp))
	}
	float64Draw := func(r *rng) uint64 {
		for {
			if x := r.Int63(); float64(x)/(1<<63) < 1 {
				return uint64(x)
			}
		}
	}
	cases := []struct {
		name string
		at   func(r *rng) int // positions r and names the output to round up
	}{
		{"first", func(r *rng) int { return 0 }},
		{"fast path", func(r *rng) int { return 3 }},
		{"before refill", func(r *rng) int { r.pos = rngLen - 1; return r.pos }},
		{"after another draw's refill", func(r *rng) int {
			r.unit()
			for r.pos < rngLen {
				r.Uint64()
			}
			r.Uint64()
			return r.pos
		}},
	}
	for _, c := range cases {
		var r rng
		r.seed(1)
		r.vec[c.at(&r)] = roundsUp
		ref := r
		for i := 0; i < 2*rngLen; i++ {
			if got, want := r.unit(), float64Draw(&ref); got != want {
				t.Fatalf("%s: draw %d: unit %#x, Float64's draw %#x", c.name, i, got, want)
			}
		}
	}
}

// TestRNGIntnRejectsNonPositive mirrors math/rand's panic on n <= 0.
func TestRNGIntnRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	var r rng
	r.seed(1)
	r.Intn(0)
}

// thresholdAgrees reports whether the threshold compare decides draw x as
// rand.Rand.Float64() < p does.
func thresholdAgrees(p float64, x uint64) bool {
	return (float64(x)/(1<<63) < p) == (x < threshold(p))
}

// TestThresholdExact: for every probability the generator draws against —
// each registered profile's, both phases' near/hot cut points, the burst
// density, the constants 0.3 and 0.5 — and for the extremes 0, 1, the least
// subnormal and the largest float below 1, comparing a draw with the
// threshold decides as Float64() < p does, at the threshold ±2 and around
// unitLimit, the first draw Float64 rejects.
func TestThresholdExact(t *testing.T) {
	ps := []float64{0, 1, 0.3, 0.5, 5e-324, math.Nextafter(1, 0)}
	for _, name := range Names() {
		p := MustGet(name)
		ps = append(ps,
			p.MemFraction, p.HotFraction, p.JumpProb, p.NearTaintRandom, p.ChurnProb,
			p.CleanNearTaint, p.BurstNearTaint,
			p.CleanNearTaint+(1-p.CleanNearTaint)*p.HotFraction,
			p.BurstNearTaint+(1-p.BurstNearTaint)*p.HotFraction,
			p.TaintPct/100/p.ActiveShare)
	}
	for _, p := range ps {
		th := threshold(p)
		xs := []uint64{unitLimit - 1, unitLimit, unitLimit + 1}
		for d := uint64(0); d <= 2; d++ {
			xs = append(xs, th+d, th-d)
		}
		for _, x := range xs {
			if x >= 1<<63 {
				continue // not an Int63 draw (th-d wrapped, or th+d past 2^63-1)
			}
			if !thresholdAgrees(p, x) {
				t.Errorf("p %v (threshold %#x): draw %#x decides %v by the threshold, %v by Float64",
					p, th, x, x < th, float64(x)/(1<<63) < p)
			}
		}
	}
}

// FuzzThreshold: for any probability in [0, 1] and any Int63 draw, the
// threshold compare decides as rand.Rand.Float64() < p does.
func FuzzThreshold(f *testing.F) {
	f.Add(0.3, uint64(0x2666666666666600))
	f.Add(0.5, uint64(1<<62-256))
	f.Add(math.Nextafter(1, 0), uint64(unitLimit-1))
	f.Add(5e-324, uint64(0))
	f.Fuzz(func(t *testing.T, p float64, x uint64) {
		if !(p >= 0 && p <= 1) {
			return
		}
		x &= 1<<63 - 1
		if !thresholdAgrees(p, x) {
			t.Errorf("p %v (threshold %#x): draw %#x decides %v by the threshold, %v by Float64",
				p, threshold(p), x, x < threshold(p), float64(x)/(1<<63) < p)
		}
	})
}
