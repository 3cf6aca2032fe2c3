package workload

import (
	"math/rand"
	"testing"
)

// TestRNGMatchesMathRand: the generator's concrete RNG is math/rand's stream,
// draw for draw, across several buffer refills and every draw kind the
// generator (or a JSON profile's footprint) can reach.
func TestRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 1 << 40, -1 << 62, 1<<31 - 1}
	ns := []int{1, 2, 16, 1024, 1 << 30, 3, 7, 1000, 4095, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<33 + 5, 1 << 40, 1<<62 + 1}
	const draws = 4 * rngLen // at least three refills
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := newRNG(seed)
		for i := 0; i < draws; i++ {
			switch i % 4 {
			case 0:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, i, g, w)
				}
			case 1:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, g, w)
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

// TestRNGIntnRejectsNonPositive mirrors math/rand's panic on n <= 0.
func TestRNGIntnRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	newRNG(1).Intn(0)
}
