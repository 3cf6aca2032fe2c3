package experiments

import (
	"testing"

	"latch/internal/policy"
)

// TestSamplingFrontierMonotone pins the frontier's shape: as the sampling
// fraction drops, the detection rate, the mean overhead, and the traced
// footprint must all be non-increasing — the nested-threshold sampler
// guarantees the tainted set only shrinks.
func TestSamplingFrontierMonotone(t *testing.T) {
	rows, err := NewRunner(goldenOptions(manyWorkers())).Frontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(FrontierFractions) {
		t.Fatalf("frontier has %d rows, want %d", len(rows), len(FrontierFractions))
	}
	if rows[0].Fraction != 1.0 {
		t.Fatalf("first frontier point is %v, want full tracing", rows[0].Fraction)
	}
	if rows[0].DetectionPct != 100 {
		t.Fatalf("full tracing detects %.1f%%, want 100%%", rows[0].DetectionPct)
	}
	if rows[0].MeanOverhead <= 0 {
		t.Fatal("full tracing reports zero overhead")
	}
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		if cur.Fraction >= prev.Fraction {
			t.Fatalf("fractions not descending: %v then %v", prev.Fraction, cur.Fraction)
		}
		if cur.DetectionPct > prev.DetectionPct {
			t.Errorf("detection rose from %.1f%% to %.1f%% as fraction dropped %v -> %v",
				prev.DetectionPct, cur.DetectionPct, prev.Fraction, cur.Fraction)
		}
		if cur.MeanOverhead > prev.MeanOverhead {
			t.Errorf("overhead rose from %v to %v as fraction dropped %v -> %v",
				prev.MeanOverhead, cur.MeanOverhead, prev.Fraction, cur.Fraction)
		}
		if cur.SWInstrPct > prev.SWInstrPct {
			t.Errorf("sw-instr %% rose from %v to %v as fraction dropped %v -> %v",
				prev.SWInstrPct, cur.SWInstrPct, prev.Fraction, cur.Fraction)
		}
	}
}

// TestSampledPolicyParallelMatchesSerial asserts a sampled policy keeps the
// worker-pool determinism contract: the frontier — and a backend pass run
// under the sampled policy — are bit-identical at any worker count.
func TestSampledPolicyParallelMatchesSerial(t *testing.T) {
	opts := goldenOptions(1)
	opts.Policy = policy.Default()
	opts.Policy.Sampling = policy.Sampling{SampleFraction: 0.5, SampleSeed: 7}
	popts := opts
	popts.Workers = manyWorkers()
	serial, parallel := NewRunner(opts), NewRunner(popts)

	st, err := serial.SamplingFrontier()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := parallel.SamplingFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if st.String() != pt.String() {
		t.Errorf("sampled frontier differs between serial and parallel runs:\n%s\nvs\n%s", st, pt)
	}

	sb, err := serial.BackendTable("slatch")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := parallel.BackendTable("slatch")
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != pb.String() {
		t.Errorf("sampled slatch pass differs between serial and parallel runs:\n%s\nvs\n%s", sb, pb)
	}
}
