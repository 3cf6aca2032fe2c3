package experiments

import (
	"context"
	"errors"
	"fmt"

	"latch/internal/engine"
	"latch/internal/policy"
	"latch/internal/slatch"
	"latch/internal/stats"
	"latch/internal/vm"
	"latch/internal/workload"
)

// FrontierFractions is the selective-tracing sweep: the source-sampling
// fractions the frontier experiment evaluates, from full tracing down to
// one percent.
var FrontierFractions = []float64{1.0, 0.5, 0.25, 0.1, 0.01}

// frontierSeeds is how many sampling seeds the detection estimate averages
// over: each seed fixes a different deterministic subset of source events.
const frontierSeeds = 8

// frontierWorkloads are the overhead side of the frontier: the calibrated
// profiles whose event-stream addresses do not depend on the shadow state
// (no near-taint or churn components), so the streams at every fraction
// are address-identical and only the tainted flags shrink — the sampled
// sets nest, which is what makes the measured overhead mechanically
// comparable across fractions, and what lets engine.Record generate each
// workload's stream once for all its points.
var frontierWorkloads = []string{"bzip2", "cactusADM", "gobmk", "lbm", "sjeng"}

// frontierAttacks are the detection side: the canned attacks whose taint
// enters through a single sampled source read, so detection at fraction f
// is exactly "was that source event sampled".
var frontierAttacks = []string{"overflow", "taintjump"}

// FrontierRow is one point of the detection-vs-overhead frontier.
type FrontierRow struct {
	// Fraction is the Sampling.SampleFraction of this point.
	Fraction float64 `json:"sample_fraction"`
	// Detected and AttackRuns are the raw detection tally: attack
	// replays that still caught their exploit, over all attacks and
	// sampling seeds.
	Detected   int `json:"detected"`
	AttackRuns int `json:"attack_runs"`
	// DetectionPct is 100*Detected/AttackRuns.
	DetectionPct float64 `json:"detection_pct"`
	// MeanOverhead is the mean S-LATCH fractional overhead over the
	// frontier workloads at this fraction.
	MeanOverhead float64 `json:"mean_overhead"`
	// SWInstrPct is the mean share of instructions executed under
	// software DIFT — the traced footprint selective tracing shrinks.
	SWInstrPct float64 `json:"sw_instr_pct"`
}

// frontierDetect replays one canned attack through the conventional
// byte-precise reference under a sampled policy and reports whether the
// exploit was still caught, and how many instructions the reference ran. A
// sampled-out source read leaves the attack input clean, so the violation
// never fires — the detection price of selective tracing.
func frontierDetect(attack string, spl policy.Sampling) (hit bool, steps uint64, err error) {
	var c *attackCase
	for i := range attackCases {
		if attackCases[i].name == attack {
			c = &attackCases[i]
			break
		}
	}
	if c == nil {
		return false, 0, fmt.Errorf("sampling: unknown attack %q", attack)
	}
	pol := policy.Default()
	pol.Sampling = spl
	_, res, err := runReference(pol, c.program, c.setup)
	if res.Violation != nil {
		return true, res.Steps, nil
	}
	// A sampled-out exploit is free to corrupt the machine — the overflow's
	// clean function pointer sends execution into the weeds. A crash is
	// still a miss: the checker did not stop the attack.
	var f vm.Fault
	if errors.As(err, &f) {
		return false, res.Steps, nil
	}
	if err != nil {
		return false, 0, fmt.Errorf("sampling %s: %w", attack, err)
	}
	return false, res.Steps, nil
}

// Frontier runs (or returns the memoized) selective-tracing sweep: for
// each sampling fraction, the detection rate over the canned attacks ×
// sampling seeds and the mean S-LATCH overhead over the frontier
// workloads. The sampler's nested thresholds make both columns
// mechanically monotone in the fraction: the tainted set at a lower
// fraction is a subset of the set at any higher one.
//
// The detection side is one pool job per fraction, whose events are the
// instructions its reference runs committed. The overhead side is one
// job per frontier workload: it records the workload's unsampled stream
// once (engine.Record) and replays it once per distinct sampled layout
// among its (fraction, seed) points (frontierPoints).
func (r *Runner) Frontier() ([]FrontierRow, error) {
	r.mu.Lock()
	if r.frontier != nil {
		rows := r.frontier
		r.mu.Unlock()
		return rows, nil
	}
	r.mu.Unlock()

	names := make([]string, len(FrontierFractions))
	for i, f := range FrontierFractions {
		names[i] = fmt.Sprintf("f%.2f", f)
	}
	rows := make([]FrontierRow, len(FrontierFractions))
	err := r.runJobs("sampling", names, func(i int, name string, js *JobStat) error {
		f := FrontierFractions[i]
		row := FrontierRow{Fraction: f}
		for seed := uint64(1); seed <= frontierSeeds; seed++ {
			for _, attack := range frontierAttacks {
				spl := policy.Sampling{SampleFraction: f, SampleSeed: seed}
				hit, steps, err := frontierDetect(attack, spl)
				if err != nil {
					return err
				}
				js.Events += steps
				row.AttackRuns++
				if hit {
					row.Detected++
				}
			}
		}
		row.DetectionPct = 100 * float64(row.Detected) / float64(row.AttackRuns)
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The overhead estimate averages over the same seeds as the detection
	// estimate: a single seed's sweep collapses to the in-or-out decision
	// of the handful of taint runs a short stream touches, while the seed
	// mean resolves the fraction itself. Each seed's sweep is monotone by
	// nesting, so the mean is too.
	points := make([][][frontierSeeds]frontierPoint, len(frontierWorkloads))
	err = r.runJobs("sampling", frontierWorkloads, func(w int, wname string, js *JobStat) error {
		// The profile seed derives from (pass, workload) only — never the
		// fraction or sampling seed — so every point replays the same
		// address stream and the overheads are comparable.
		p, err := r.jobProfile("sampling", wname)
		if err != nil {
			return err
		}
		rec, err := engine.Record(p, r.opts.Events)
		if err != nil {
			return fmt.Errorf("sampling %s: %w", wname, err)
		}
		points[w], err = r.frontierPoints(p, rec, js)
		return err
	})
	if err != nil {
		return nil, err
	}
	addOverheads(rows, points)
	r.mu.Lock()
	r.frontier = rows
	r.mu.Unlock()
	return rows, nil
}

// frontierPoint is one frontier workload's S-LATCH result at one (fraction,
// seed) point.
type frontierPoint struct{ overhead, swInstrPct float64 }

// frontierPoints returns workload p's points, pts[i][seed-1] at fraction i,
// replayed from rec, and adds the replays' events and coarse checks to js.
// A replay's result depends only on the recording and on which of p's taint
// runs the sampled layout keeps, so each distinct layout
// (workload.LayoutKey) is replayed once and every later point with that
// layout takes its values: the frontier's 200 points hold 43 layouts.
func (r *Runner) frontierPoints(p workload.Profile, rec *engine.Recording, js *JobStat) ([][frontierSeeds]frontierPoint, error) {
	pts := make([][frontierSeeds]frontierPoint, len(FrontierFractions))
	replayed := map[string]frontierPoint{}
	for i, f := range FrontierFractions {
		for seed := uint64(1); seed <= frontierSeeds; seed++ {
			spl := policy.Sampling{SampleFraction: f, SampleSeed: seed}
			key := workload.LayoutKey(p, spl)
			pt, ok := replayed[key]
			if !ok {
				var err error
				if pt, err = r.replayPoint(rec, spl, js); err != nil {
					return nil, fmt.Errorf("sampling %s @ %.2f: %w", p.Name, f, err)
				}
				replayed[key] = pt
			}
			pts[i][seed-1] = pt
		}
	}
	return pts, nil
}

// replayPoint replays rec through S-LATCH under spl, adds the replay's
// events and coarse checks to js, and returns the point.
func (r *Runner) replayPoint(rec *engine.Recording, spl policy.Sampling, js *JobStat) (frontierPoint, error) {
	pol := r.policy()
	pol.Sampling = spl
	opts := engine.RunOptions{Events: r.opts.Events, Observer: r.passObserver("sampling"), Policy: pol}
	res, err := rec.Run(context.Background(), slatch.NewBackend(slatch.DefaultConfig()), opts)
	if err != nil {
		return frontierPoint{}, err
	}
	sr := res.(slatch.Result)
	js.Events += sr.Events
	js.Checks += sr.CheckCount()
	return frontierPoint{sr.Overhead(), 100 * float64(sr.SWInstrs) / float64(sr.Events)}, nil
}

// addOverheads sets each row's MeanOverhead and SWInstrPct to the mean of
// its points, where points[w][i][seed-1] is workload w's point at fraction
// i. It sums seeds outer, workloads inner: sampling.golden pins the
// rounding of this order.
func addOverheads(rows []FrontierRow, points [][][frontierSeeds]frontierPoint) {
	for i := range rows {
		for seed := 0; seed < frontierSeeds; seed++ {
			for w := range points {
				rows[i].MeanOverhead += points[w][i][seed].overhead
				rows[i].SWInstrPct += points[w][i][seed].swInstrPct
			}
		}
		rows[i].MeanOverhead /= float64(len(points) * frontierSeeds)
		rows[i].SWInstrPct /= float64(len(points) * frontierSeeds)
	}
}

// SamplingFrontier renders the selective-tracing frontier: what detection
// rate each sampling fraction buys, and what tracing overhead it costs.
func (r *Runner) SamplingFrontier() (*stats.Table, error) {
	rows, err := r.Frontier()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Selective tracing frontier (detection rate vs S-LATCH overhead, nested source sampling)",
		"sample fraction", "detection %", "mean overhead", "sw-instr %")
	for _, row := range rows {
		t.AddRowf(row.Fraction, row.DetectionPct, row.MeanOverhead, row.SWInstrPct)
	}
	return t, nil
}
