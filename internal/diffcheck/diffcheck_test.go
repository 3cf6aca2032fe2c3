package diffcheck_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"latch/internal/diffcheck"
	"latch/internal/latch"
)

const corpusDir = "../../testdata/diffcheck"

// TestCampaignSmoke is the checked-in equivalence tier: every registered
// backend against the byte-precise reference over 200 seeded cases plus the
// reproducer corpus, with zero divergences — and byte-identical logs across
// two same-seed runs, the determinism contract `make diffcheck` relies on.
// The campaign runs over a copy of the corpus: a failing run writes its
// minimized reproducers there, never into the checked-in directory.
func TestCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("differential campaign skipped in -short mode")
	}
	corpus := t.TempDir()
	repros, err := filepath.Glob(filepath.Join(corpusDir, "*.repro"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range repros {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(corpus, filepath.Base(p)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func() (*diffcheck.Report, string) {
		var log bytes.Buffer
		rep, err := diffcheck.Run(diffcheck.Options{
			Seed:      1,
			Cases:     200,
			Backends:  diffcheck.Backends(),
			CorpusDir: corpus,
			Log:       &log,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, log.String()
	}
	rep, logA := run()
	if len(rep.Failures) != 0 {
		for _, f := range rep.Failures {
			t.Errorf("%s: %s", f.Name, &f.Failure)
		}
		t.Fatalf("%d divergences over %d cases", len(rep.Failures), rep.Cases)
	}
	if rep.Cases != 200 {
		t.Fatalf("ran %d cases, want 200", rep.Cases)
	}
	if rep.Corpus == 0 {
		t.Fatal("reproducer corpus not replayed")
	}
	if _, logB := run(); logA != logB {
		t.Fatal("same-seed campaign logs differ: checker is not deterministic")
	}
}

// TestCorpusReplays pins the fixed bugs: every checked-in reproducer — the
// notePageRange bitmap overrun, the wrapping-store decode-cache overrun, and
// the unclamped SysWrite hang — must stay green on the current tree.
func TestCorpusReplays(t *testing.T) {
	cases, err := diffcheck.CorpusCases(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 3 {
		t.Fatalf("corpus holds %d cases, expected at least the 3 checked-in reproducers", len(cases))
	}
	for name, c := range cases {
		if f := diffcheck.CheckCase(c, diffcheck.Backends()); f != nil {
			t.Errorf("%s: %s", name, f)
		}
	}
}

func TestBuildCaseDeterministic(t *testing.T) {
	a, b := diffcheck.BuildCase(99), diffcheck.BuildCase(99)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed built different cases")
	}
	c := diffcheck.BuildCase(100)
	if reflect.DeepEqual(a.Instrs, c.Instrs) {
		t.Fatal("different seeds built identical programs")
	}
	if a.MaxSteps == 0 || len(a.Instrs) == 0 {
		t.Fatalf("degenerate case: %+v", a)
	}
}

func TestReproRoundTrip(t *testing.T) {
	c := diffcheck.BuildCase(12345)
	c.Requests = [][]byte{{0x47, 0x45, 0x54}, {0xFF}}
	path := filepath.Join(t.TempDir(), "roundtrip.repro")
	f := &diffcheck.Failure{Kind: "divergence", Backend: "hlatch", Detail: "test detail"}
	if err := diffcheck.WriteRepro(path, c, f); err != nil {
		t.Fatal(err)
	}
	got, err := diffcheck.ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != c.Seed || got.MaxSteps != c.MaxSteps {
		t.Fatalf("round trip mutated seed/maxsteps: %+v vs %+v", got, c)
	}
	if !reflect.DeepEqual(got.Instrs, c.Instrs) {
		t.Fatal("round trip mutated the program")
	}
	if !bytes.Equal(got.Input, c.Input) {
		t.Fatal("round trip mutated the input")
	}
	if len(got.Requests) != len(c.Requests) {
		t.Fatalf("round trip mutated requests: %d vs %d", len(got.Requests), len(c.Requests))
	}
	for i := range got.Requests {
		if !bytes.Equal(got.Requests[i], c.Requests[i]) {
			t.Fatalf("round trip mutated request %d", i)
		}
	}
}

func TestOutcomeDiffDetectsDivergence(t *testing.T) {
	c := diffcheck.BuildCase(7)
	ref, err := diffcheck.RunReference(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := ref.Diff(ref); d != "" {
		t.Fatalf("identical outcomes diff: %s", d)
	}
	tampered := ref
	tampered.Exit++
	if ref.Diff(tampered) == "" {
		t.Fatal("exit-code divergence not detected")
	}
	tampered = ref
	tampered.Violations = append([]string{"fake violation"}, tampered.Violations...)
	if ref.Diff(tampered) == "" {
		t.Fatal("violation-set divergence not detected")
	}
	tampered = ref
	tampered.TaintHash++
	if ref.Diff(tampered) == "" {
		t.Fatal("final-shadow divergence not detected")
	}
}

// TestMinimizeShrinksFailingCase exercises the delta-debugging loop against a
// failure that any program reproduces (an unknown backend name), so the
// minimizer should NOP out essentially the whole body.
func TestMinimizeShrinksFailingCase(t *testing.T) {
	c := diffcheck.BuildCase(3)
	backends := []string{"no-such-backend"}
	orig := diffcheck.CheckCase(c, backends)
	if orig == nil || orig.Kind != "error" {
		t.Fatalf("expected error failure, got %v", orig)
	}
	min := diffcheck.Minimize(c, backends)
	if len(min.Instrs) > len(c.Instrs) {
		t.Fatal("minimization grew the program")
	}
	if got := diffcheck.CheckCase(min, backends); got == nil || !got.Same(orig) {
		t.Fatalf("minimized case no longer reproduces: %v", got)
	}
	if len(min.Instrs) >= len(c.Instrs)/2 {
		t.Fatalf("minimizer left %d of %d instructions for a program-independent failure",
			len(min.Instrs), len(c.Instrs))
	}
}

func TestRunWritesReproducerOnFailure(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	rep, err := diffcheck.Run(diffcheck.Options{
		Seed:        5,
		Cases:       2,
		Backends:    []string{"no-such-backend"},
		CorpusDir:   dir,
		MaxFailures: 1,
		Log:         &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("failures = %d, want 1 (MaxFailures)", len(rep.Failures))
	}
	fr := rep.Failures[0]
	if fr.ReproPath == "" {
		t.Fatal("no reproducer written")
	}
	if _, err := diffcheck.ReadRepro(fr.ReproPath); err != nil {
		t.Fatalf("written reproducer unreadable: %v", err)
	}
	if !strings.Contains(log.String(), "FAIL") {
		t.Fatalf("failure not logged:\n%s", log.String())
	}
}

func TestStreamDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("stream checks skipped in -short mode")
	}
	for _, b := range diffcheck.Backends() {
		if err := diffcheck.StreamDeterminism(b, "gcc", 50_000, 1); err != nil {
			t.Errorf("%s: %v", b, err)
		}
	}
}

func TestModuleInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("stream checks skipped in -short mode")
	}
	for _, pol := range []latch.ClearPolicy{latch.EagerClear, latch.LazyClear} {
		if err := diffcheck.ModuleInvariant(pol, "apache", 50_000, 1); err != nil {
			t.Errorf("policy %v: %v", pol, err)
		}
	}
}

// TestCasePolicyRotation pins the selective-tracing axis of the search:
// seeds rotate deterministically through the sampling fractions (anchored
// at full tracing), and the sampling seed is the case seed — so a failing
// case replays its exact policy from the seed alone.
func TestCasePolicyRotation(t *testing.T) {
	wantFractions := []float64{1.0, 1.0, 0.5, 0.25, 0.1}
	for seed := int64(0); seed < 10; seed++ {
		pol := diffcheck.CasePolicy(seed)
		if got, want := pol.Sampling.SampleFraction, wantFractions[seed%5]; got != want {
			t.Errorf("seed %d: fraction %v, want %v", seed, got, want)
		}
		if pol.Sampling.SampleSeed != uint64(seed) {
			t.Errorf("seed %d: sample seed %d", seed, pol.Sampling.SampleSeed)
		}
		if !pol.TaintFile || !pol.TaintNet || !pol.CheckControlFlow || !pol.CheckLeak {
			t.Errorf("seed %d: base policy not fully armed: %+v", seed, pol)
		}
		if pol.FailFast {
			t.Errorf("seed %d: FailFast must stay off for comparable runs", seed)
		}
		if again := diffcheck.CasePolicy(seed); again != pol {
			t.Errorf("seed %d: CasePolicy not deterministic", seed)
		}
	}
}
