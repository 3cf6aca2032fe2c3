package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"latch"
	"latch/internal/workload"
)

// TestLoadIsSeeded pins the load contract: one seed always produces the
// same load — replay requests and stream seeds, program request batches,
// serve job bodies (whose order is the open-loop schedule's), catalog
// options — and two seeds produce different loads.
func TestLoadIsSeeded(t *testing.T) {
	load := func(seed int64) []any {
		jobs, err := serveLoad(seed)
		if err != nil {
			t.Fatal(err)
		}
		var bodies [][]byte
		for _, j := range jobs {
			bodies = append(bodies, j.body)
		}
		return []any{replayLoad(seed), programLoad(seed), bodies, catalogOptions(seed)}
	}
	a, b, c := load(7), load(7), load(8)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("load part %d differs between two loads from seed 7", i)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("load part %d is the same for seeds 7 and 8", i)
		}
	}
}

// TestTracedReplayMatchesFacade: the wrapped backend driven through
// engine.RunProfileSession gives latch.Run's result, digest for digest.
func TestTracedReplayMatchesFacade(t *testing.T) {
	tr := newTracer()
	for i, req := range replayLoad(3) {
		req.Events = 50_000
		want, err := latch.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := tracedReplayRun(tr, int64(i), req)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := resultDigest(got), resultDigest(want); g != w {
			t.Errorf("%s: traced digest %s, facade %s", replayKey(req), g, w)
		}
	}
	if tot := tr.totals(); tot["cplatch.StepBatch.mysql"].count == 0 {
		t.Error("no StepBatch spans recorded")
	}
}

// TestTracedProgramMatchesPlain: the wrapped tracker changes nothing the
// program does, and both equal the reference stack.
func TestTracedProgramMatchesPlain(t *testing.T) {
	src, err := workload.ProgramSource("server")
	if err != nil {
		t.Fatal(err)
	}
	reqs := programLoad(3)[0][:128]
	sys, err := newSystem(programPolicy(), nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runSystem(sys, src, programMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if sys, err = newSystem(programPolicy(), nil, reqs); err != nil {
		t.Fatal(err)
	}
	tt := &tracedTracker{inner: sys.Engine, tr: newTracer(), run: -1}
	sys.Machine.SetTracker(tt)
	got, err := runSystem(sys, src, programMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("traced outcome %+v, untraced %+v", got, want)
	}
	if tt.timed == 0 {
		t.Error("no tracker call was timed")
	}
	ref, err := referenceOutcome(programPolicy(), src, nil, reqs, programMaxSteps)
	if err != nil || ref != want {
		t.Errorf("reference outcome %+v (%v), System %+v", ref, err, want)
	}
}

// TestTracedCatalogMatchesUntraced: recording spans leaves every table
// unchanged.
func TestTracedCatalogMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("two catalog passes")
	}
	plain, errs, _ := catalogPass(catalogWarmOptions, nil)
	tr := newTracer()
	root := tr.begin("pass", -1, 0)
	traced, terrs, _ := catalogPass(catalogWarmOptions, func(id string, start, end time.Time) {
		tr.add(id, start, end, root, 0)
	})
	for i := range plain {
		if errs[i] != nil || terrs[i] != nil || plain[i] != traced[i] {
			t.Errorf("experiment %d: traced table differs (errors %v, %v)", i, errs[i], terrs[i])
		}
	}
}

// TestServedJobsMatchDirectRuns: every job body's result line equals a
// direct run of the same program, and the hostile inputs do raise
// violations.
func TestServedJobsMatchDirectRuns(t *testing.T) {
	jobs, err := serveLoad(3)
	if err != nil {
		t.Fatal(err)
	}
	env, err := startServer(jobs)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	violations := 0
	for i, j := range jobs {
		rep, err := env.post(j.body)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want, err := directOutcome(j)
		if err != nil {
			t.Fatal(err)
		}
		if rep.out != want {
			t.Errorf("job %d: served %+v, direct %+v", i, rep.out, want)
		}
		if want.violation != "" {
			violations++
		}
	}
	if violations == 0 {
		t.Error("no job raised a violation")
	}
}

// TestSpanSelfTime: a span's self time excludes the spans nested in it.
func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.base.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("run", at(0), at(10), -1, 1)
	tr.add("step", at(1), at(4), root, 1)
	tr.add("step", at(5), at(7), root, 1)
	tot := tr.totals()
	if got := tot["run"].self; got != 5*time.Millisecond {
		t.Errorf("run self time %v, want 5ms", got)
	}
	if got := tot["step"]; got.count != 2 || got.total != 5*time.Millisecond {
		t.Errorf("step totals %+v, want 2 spans over 5ms", got)
	}
}

// TestCalibratorScalesRounds: a round's CPU time, less the samples' own,
// is scaled by refNs over the median of the round's samples, and each
// round uses only its own samples.
func TestCalibratorScalesRounds(t *testing.T) {
	c := calibrator{samples: []float64{2e6, 3e6, 2e6}, spent: 7 * time.Millisecond}
	c.round(17*time.Millisecond, 1000) // 10 ms of work at half the reference's speed
	c.samples = []float64{1e6}
	c.round(4*time.Millisecond, 1000)
	c.round(time.Millisecond, 0) // a round with no operation adds nothing
	if want := []float64{5000, 4000}; !reflect.DeepEqual(c.norm, want) {
		t.Errorf("scaled rounds %v, want %v", c.norm, want)
	}
	if len(c.samples) != 0 || c.spent != 0 {
		t.Errorf("round left samples %v and spent %v behind", c.samples, c.spent)
	}
}
