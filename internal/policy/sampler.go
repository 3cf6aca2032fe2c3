package policy

// Sampler makes the deterministic per-source-event Bernoulli decisions
// behind Sampling and TrustFraction. It is a small value type (copy
// freely) and every decision is a pure function of (seed, kind,
// ordinal) — no internal state, no dependence on scheduling — which is
// what makes sampled taint sets identical across repeated runs,
// backends, and worker counts.
//
// The decision rule is a nested-threshold construction: an event is
// sampled iff hash(seed, kind, ordinal) falls under a threshold that
// scales linearly with the fraction. Because the hash of a fixed
// (seed, kind, ordinal) is fixed, the sampled set at a lower fraction
// is always a subset of the sampled set at any higher fraction with
// the same seed. The selective-tracing frontier experiment leans on
// this: detection rate and taint footprint are mechanically monotone
// non-increasing as the fraction drops.
type Sampler struct {
	seed      uint64
	threshold uint64
	all       bool // sampling disabled: every event passes
}

// NewSampler builds a sampler from a Sampling spec. The zero spec
// (fraction 0) yields a pass-everything sampler.
func NewSampler(s Sampling) Sampler {
	sp := Sampler{seed: s.SampleSeed}
	if s.SampleFraction == 0 {
		sp.all = true
		return sp
	}
	sp.threshold = threshold(s.SampleFraction)
	return sp
}

// threshold maps a fraction in [0, 1] to a 53-bit acceptance bound.
// The hash is compared at 53-bit precision (the full precision of a
// float64 mantissa) so fraction == 1.0 maps to 1<<53, above every
// possible hash>>11 value — an exact always-sample, no special case.
func threshold(fraction float64) uint64 {
	if fraction <= 0 {
		return 0
	}
	if fraction >= 1 {
		return 1 << 53
	}
	return uint64(fraction * (1 << 53))
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// bijection.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sampleHash mixes seed, kind, and ordinal into a uniform 64-bit value.
// The odd multipliers keep distinct kinds and ordinals from aliasing
// before the finalizer runs.
func sampleHash(seed uint64, kind Kind, ordinal uint64) uint64 {
	x := seed ^ 0x9e3779b97f4a7c15
	x = mix64(x + uint64(kind)*0xa0761d6478bd642f)
	x = mix64(x ^ ordinal*0xe7037ed1a0b428db)
	return x
}

// Sample reports whether the ordinal-th source event of the given kind
// is tainted under this sampler.
func (sp Sampler) Sample(kind Kind, ordinal uint64) bool {
	if sp.all {
		return true
	}
	return sampleHash(sp.seed, kind, ordinal)>>11 < sp.threshold
}

// Trust reports whether the given connection id is trusted under the
// declarative TrustFraction rule. It shares the sampler's seed but is
// independent of the SampleFraction gate: trust is its own fraction,
// evaluated with KindTrust and the connection id as the ordinal.
// fraction <= 0 trusts nothing (the old nil-TrustConn behavior);
// fraction >= 1 trusts everything. Negative connection ids (no
// connection context) are never trusted.
func (sp Sampler) Trust(fraction float64, conn int) bool {
	if fraction <= 0 || conn < 0 {
		return false
	}
	return sampleHash(sp.seed, KindTrust, uint64(conn))>>11 < threshold(fraction)
}
