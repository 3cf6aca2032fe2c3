package experiments

import (
	"runtime"
	"strings"
	"testing"

	"latch/internal/stats"
	"latch/internal/workload"
)

// parallelTestOptions sizes the determinism runs: small enough that the
// full catalog stays fast, large enough that every pass does real work.
func parallelTestOptions(workers int) Options {
	return Options{
		Events:      60_000,
		EpochEvents: 400_000,
		Fig6Events:  80_000,
		Workers:     workers,
	}
}

// manyWorkers picks the "parallel" worker count: every available CPU, and
// never fewer than 4 so the schedule is genuinely concurrent even on small
// machines.
func manyWorkers() int {
	n := runtime.NumCPU()
	if n < 4 {
		n = 4
	}
	return n
}

// TestParallelMatchesSerial is the harness's determinism contract: every
// experiment in the catalog must render a byte-identical table whether its
// jobs run serially (Workers=1) or fan out across the worker pool. Each
// job's RNG seed derives from (experiment id, workload name), so worker
// count and scheduling cannot reach the results.
func TestParallelMatchesSerial(t *testing.T) {
	serial := NewRunner(parallelTestOptions(1))
	parallel := NewRunner(parallelTestOptions(manyWorkers()))
	for _, e := range Catalog {
		st, err := e.Run(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", e.ID, err)
		}
		pt, err := e.Run(parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", e.ID, err)
		}
		sOut, pOut := st.String(), pt.String()
		if sOut == pOut {
			continue
		}
		sLines := strings.Split(sOut, "\n")
		pLines := strings.Split(pOut, "\n")
		for i := 0; i < len(sLines) || i < len(pLines); i++ {
			var a, b string
			if i < len(sLines) {
				a = sLines[i]
			}
			if i < len(pLines) {
				b = pLines[i]
			}
			if a != b {
				t.Errorf("%s: line %d differs\n  serial:   %q\n  parallel: %q", e.ID, i, a, b)
			}
		}
		t.Fatalf("%s: parallel output diverges from serial", e.ID)
	}
}

// TestWorkerCountInsensitive spot-checks a heavy suite pass at several
// intermediate pool sizes, not just the two endpoints.
func TestWorkerCountInsensitive(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 3, 8} {
		r := NewRunner(parallelTestOptions(workers))
		tbl, err := r.Table6()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == "" {
			want = tbl.String()
			continue
		}
		if got := tbl.String(); got != want {
			t.Fatalf("workers=%d: Table 6 diverges from workers=1\n%s", workers, got)
		}
	}
}

// TestJobStatsRecorded checks the per-job accounting that -stats surfaces:
// one record per (pass, workload) job with real work attributed.
func TestJobStatsRecorded(t *testing.T) {
	r := NewRunner(parallelTestOptions(manyWorkers()))
	if _, err := r.Table6(); err != nil {
		t.Fatal(err)
	}
	jobs := r.JobStats()
	names := workload.BySuite(workload.SuiteSPEC)
	if len(jobs) != len(names) {
		t.Fatalf("recorded %d jobs, want %d", len(jobs), len(names))
	}
	seen := map[string]bool{}
	for _, js := range jobs {
		if js.Pass != "hlatch" {
			t.Errorf("unexpected pass %q", js.Pass)
		}
		if js.Events == 0 || js.Checks == 0 {
			t.Errorf("job %s recorded no work: %+v", js.Job, js)
		}
		if js.Timing.Wall <= 0 {
			t.Errorf("job %s recorded no wall time", js.Job)
		}
		seen[js.Job] = true
	}
	for _, name := range names {
		if !seen[name] {
			t.Errorf("no job recorded for %s", name)
		}
	}
	// Memoized reuse must not double-record.
	if _, err := r.Table7(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Table6(); err != nil {
		t.Fatal(err)
	}
	network := workload.BySuite(workload.SuiteNetwork)
	if got := len(r.JobStats()); got != len(names)+len(network) {
		t.Fatalf("after memoized rerun: %d jobs", got)
	}
	summary := r.StatsSummary()
	if summary.Rows() != 2 { // hlatch + TOTAL
		t.Fatalf("summary rows = %d", summary.Rows())
	}

	// The program-driven passes count what their machines ran: instructions
	// always, and coarse checks wherever a module ran. PIFT runs on the
	// module-free reference stack.
	opts := parallelTestOptions(manyWorkers())
	opts.Events = 5_000
	prog := NewRunner(opts)
	for _, run := range []func() (*stats.Table, error){prog.Attacks, prog.CoSim, prog.PIFT, prog.ParallelCoSim, prog.SamplingFrontier} {
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
	}
	work := map[string]JobStat{}
	for _, js := range prog.JobStats() {
		w := work[js.Pass]
		w.Events += js.Events
		w.Checks += js.Checks
		work[js.Pass] = w
		// The frontier's detection jobs (f1.00 … f0.01) run the reference
		// on the canned attacks.
		if js.Pass == "sampling" && strings.HasPrefix(js.Job, "f") && js.Events == 0 {
			t.Errorf("sampling detection job %s recorded no instructions", js.Job)
		}
	}
	for pass, module := range map[string]bool{"attacks": true, "cosim": true, "pift": false, "platch-cosim": true, "sampling": true} {
		if w := work[pass]; w.Events == 0 || (w.Checks != 0) != module {
			t.Errorf("pass %s recorded %d instructions and %d coarse checks (module: %v)", pass, w.Events, w.Checks, module)
		}
	}
}

// TestRunnerSafeForConcurrentCallers drives overlapping experiments from
// several goroutines against one Runner; the memo mutex must serialize the
// passes and the results must match a single-threaded Runner. Run with
// -race, this also guards the pool plumbing itself.
func TestRunnerSafeForConcurrentCallers(t *testing.T) {
	ref := NewRunner(parallelTestOptions(1))
	want, err := ref.Table2()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(parallelTestOptions(2))
	errs := make(chan error, 4)
	tables := make(chan string, 4)
	for i := 0; i < 4; i++ {
		go func() {
			tbl, err := r.Table2()
			if err != nil {
				errs <- err
				return
			}
			tables <- tbl.String()
			errs <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if got := <-tables; got != want.String() {
			t.Fatalf("concurrent caller %d saw a different table", i)
		}
	}
}
