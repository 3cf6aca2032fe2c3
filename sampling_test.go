package latch_test

import (
	"context"
	"testing"

	"latch"
	"latch/internal/platch"
)

// sampledMonitorView is the deterministic slice of a concurrent P-LATCH
// result: what the monitor saw, without the scheduling-dependent ring stats.
type sampledMonitorView struct {
	Events           uint64
	FlaggedEvents    uint64
	FlagDigest       uint64
	MonitorDomains   int
	MonitorTaintHash uint64
}

func runSampledCplatch(t *testing.T, pol latch.Policy) sampledMonitorView {
	t.Helper()
	res, err := latch.Run(context.Background(), latch.RunRequest{
		Backend:  "cplatch",
		Workload: "gcc",
		Events:   200_000,
		Policy:   &pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	cr, ok := res.(platch.ConcurrentResult)
	if !ok {
		t.Fatalf("cplatch returned %T", res)
	}
	return sampledMonitorView{
		Events:           cr.Events,
		FlaggedEvents:    cr.FlaggedEvents,
		FlagDigest:       cr.FlagDigest,
		MonitorDomains:   cr.MonitorDomains,
		MonitorTaintHash: cr.MonitorTaintHash,
	}
}

// TestSampledTaintSetDeterministic is the determinism property of the
// seeded sampler: the same SampleSeed selects the same tainted subset on
// every run — the concurrent P-LATCH monitor's taint state and flagged log
// are identical across repeated runs, whatever the goroutine schedule.
func TestSampledTaintSetDeterministic(t *testing.T) {
	pol := latch.DefaultPolicy()
	pol.Sampling = latch.Sampling{SampleFraction: 0.5, SampleSeed: 7}
	want := runSampledCplatch(t, pol)
	if want.MonitorDomains == 0 {
		t.Fatal("sampled run tainted no domains; the property would be vacuous")
	}
	for run := 1; run < 4; run++ {
		if got := runSampledCplatch(t, pol); got != want {
			t.Errorf("run %d monitor view %+v, want %+v", run, got, want)
		}
	}
}

// TestSampledTaintSetSeedSensitivity pins the other direction: a different
// SampleSeed picks a different subset (for a fraction strictly inside
// (0,1) on a workload with enough taint runs to tell them apart).
func TestSampledTaintSetSeedSensitivity(t *testing.T) {
	pol := latch.DefaultPolicy()
	pol.Sampling = latch.Sampling{SampleFraction: 0.5, SampleSeed: 7}
	a := runSampledCplatch(t, pol)
	pol.Sampling.SampleSeed = 8
	b := runSampledCplatch(t, pol)
	// The short stream stays inside one taint domain, so the discriminating
	// signal is the flagged log, not the domain set.
	if a == b {
		t.Errorf("seeds 7 and 8 produced identical monitor views %+v", a)
	}
}
