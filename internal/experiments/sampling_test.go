package experiments

import (
	"context"
	"slices"
	"testing"

	"latch/internal/engine"
	"latch/internal/policy"
	"latch/internal/slatch"
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

// TestRunnerPolicyReachesProfileRuns pins Options.Policy's promise for the
// experiments that build their own profile runs: under a Runner sampling at
// 0.01, every point column of the domain, CTC, timeout and queue ablations,
// and conventional's 4 KiB column, differ from a zero-policy Runner's in
// some row. A run that dropped the policy would reproduce its unsampled
// cells.
func TestRunnerPolicyReachesProfileRuns(t *testing.T) {
	opts := Options{Events: 20_000, EpochEvents: 20_000, Fig6Events: 20_000, Workers: manyWorkers()}
	sampled := opts
	sampled.Policy = policy.Default()
	sampled.Policy.Sampling = policy.Sampling{SampleFraction: 0.01, SampleSeed: 3}
	plain, thin := NewRunner(opts), NewRunner(sampled)
	for _, id := range []string{"ablation-domain", "ablation-ctc", "ablation-timeout", "ablation-queue", "conventional"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := e.Run(plain)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.Run(thin)
		if err != nil {
			t.Fatal(err)
		}
		cols := len(pt.Header())
		if id == "conventional" {
			cols = 2 // the benchmark and the 4 KiB column
		}
		for c := 1; c < cols; c++ {
			same := true
			for row := 0; row < pt.Rows() && same; row++ {
				same = pt.Cell(row, c) == st.Cell(row, c)
			}
			if same {
				t.Errorf("%s column %q is the same under 1%% sampling as unsampled:\n%s", id, pt.Header()[c], st)
			}
		}
	}
}

// TestFrontierReplayMatchesRunProfile is the replay's oracle: for every
// frontier workload at every FrontierFractions value (two sampling seeds
// each), a point replayed from the workload's recorded unsampled stream
// equals an S-LATCH RunProfile run under the same sampling.
func TestFrontierReplayMatchesRunProfile(t *testing.T) {
	r := NewRunner(goldenOptions(1))
	const events = 30_000
	for _, name := range frontierWorkloads {
		p, err := r.jobProfile("sampling", name)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := engine.Record(p, events)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range FrontierFractions {
			for _, seed := range []uint64{1, 5} {
				opts := engine.RunOptions{Events: events, Policy: policy.Default()}
				opts.Policy.Sampling = policy.Sampling{SampleFraction: f, SampleSeed: seed}
				want, err := engine.RunProfile(context.Background(), slatch.NewBackend(slatch.DefaultConfig()), p, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rec.Run(context.Background(), slatch.NewBackend(slatch.DefaultConfig()), opts)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s at fraction %v seed %d: replayed %+v, generated %+v", name, f, seed, got, want)
				}
			}
		}
	}
}

// TestFrontierReplaysEachLayoutOnce is the memo's oracle: at a short length,
// each frontier workload's memoized points equal, exactly, a replay of
// every one of its 40 (fraction, seed) points, and so the memoized rows
// equal rows summed from the 200 replays, field for field; the detection
// side replays no layout and is taken as it is. The overhead jobs replay
// only the 43 distinct layouts (bzip2 29, cactusADM 2, gobmk 2, lbm 4,
// sjeng 6), and their events count only those replays; the detection
// jobs count their reference runs' instructions beside them.
func TestFrontierReplaysEachLayoutOnce(t *testing.T) {
	opts := goldenOptions(1)
	opts.Events = 20_000
	memo := NewRunner(opts)
	rows, err := memo.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	var events, checks uint64
	for _, js := range memo.JobStats() {
		if slices.Contains(frontierWorkloads, js.Job) {
			events += js.Events
			checks += js.Checks
		}
	}
	if want := 43 * opts.Events; events != want {
		t.Errorf("the overhead jobs replayed %d events, want %d: one replay per distinct layout", events, want)
	}
	if checks == 0 {
		t.Error("the overhead jobs reported no coarse checks")
	}

	all := NewRunner(opts)
	points := make([][][frontierSeeds]frontierPoint, len(frontierWorkloads))
	for w, name := range frontierWorkloads {
		p, err := all.jobProfile("sampling", name)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := engine.Record(p, opts.Events)
		if err != nil {
			t.Fatal(err)
		}
		points[w] = make([][frontierSeeds]frontierPoint, len(FrontierFractions))
		for i, f := range FrontierFractions {
			for seed := uint64(1); seed <= frontierSeeds; seed++ {
				if points[w][i][seed-1], err = all.replayPoint(rec, policy.Sampling{SampleFraction: f, SampleSeed: seed}, &JobStat{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		memoized, err := memo.frontierPoints(p, rec, &JobStat{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range memoized {
			for seed, got := range memoized[i] {
				if want := points[w][i][seed]; got != want {
					t.Errorf("%s at fraction %v seed %d: memoized %+v, replayed %+v", name, FrontierFractions[i], seed+1, got, want)
				}
			}
		}
	}
	want := make([]FrontierRow, len(rows))
	for i, row := range rows {
		want[i] = FrontierRow{Fraction: row.Fraction, Detected: row.Detected, AttackRuns: row.AttackRuns, DetectionPct: row.DetectionPct}
	}
	addOverheads(want, points)
	for i := range rows {
		if rows[i] != want[i] {
			t.Errorf("row %d: memoized %+v, every point replayed %+v", i, rows[i], want[i])
		}
	}
}
