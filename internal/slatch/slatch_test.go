package slatch

import (
	"testing"

	"latch/internal/latch"
	"latch/internal/workload"
)

func shortCfg() Config {
	cfg := DefaultConfig()
	cfg.Events = 400_000
	return cfg
}

func TestRejectsEagerClear(t *testing.T) {
	cfg := shortCfg()
	cfg.Latch.Clear = latch.EagerClear
	if _, err := Run(workload.MustGet("gcc"), cfg); err == nil {
		t.Fatal("eager clear accepted")
	}
}

func TestAccountingInvariants(t *testing.T) {
	r, err := Run(workload.MustGet("apache"), shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Events != 400_000 || r.Cycles.Base != r.Events {
		t.Fatalf("events=%d base=%d", r.Events, r.Cycles.Base)
	}
	if r.HWInstrs+r.SWInstrs != r.Events {
		t.Fatalf("HW %d + SW %d != %d", r.HWInstrs, r.SWInstrs, r.Events)
	}
	if r.TotalCycles() < r.Cycles.Base {
		t.Fatal("total below native")
	}
	if r.Switches == 0 || r.SWInstrs == 0 {
		t.Fatalf("apache should switch: switches=%d sw=%d", r.Switches, r.SWInstrs)
	}
	if r.Overhead() <= 0 {
		t.Fatalf("overhead = %v", r.Overhead())
	}
	if r.SpeedupVsLibdft() <= 1 {
		t.Fatalf("speedup vs libdft = %v, want > 1", r.SpeedupVsLibdft())
	}
}

func TestCleanBenchmarkStaysInHardware(t *testing.T) {
	// bzip2: 0.01% taint, long epochs -> overhead must be tiny and nearly
	// all instructions run in hardware mode.
	r, err := Run(workload.MustGet("bzip2"), shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(r.HWInstrs) / float64(r.Events); frac < 0.9 {
		t.Errorf("bzip2 hardware fraction = %.3f", frac)
	}
	if r.Overhead() > 0.10 {
		t.Errorf("bzip2 overhead = %.3f, want < 0.10", r.Overhead())
	}
}

func TestFragmentedBenchmarkMostlySoftware(t *testing.T) {
	// astar: 21.7% taint, short epochs -> software mode dominates, overhead
	// approaches the libdft baseline.
	r, err := Run(workload.MustGet("astar"), shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(r.SWInstrs) / float64(r.Events); frac < 0.5 {
		t.Errorf("astar software fraction = %.3f", frac)
	}
	if r.Overhead() < 1.0 {
		t.Errorf("astar overhead = %.3f, want substantial", r.Overhead())
	}
	// But never (much) worse than running libdft continuously plus the
	// switching overhead.
	if r.Overhead() > r.LibdftOverhead()*1.5 {
		t.Errorf("astar overhead %.2f far exceeds libdft %.2f", r.Overhead(), r.LibdftOverhead())
	}
}

func TestSpeedupOrdering(t *testing.T) {
	// The trusted-connection policies must speed apache up monotonically
	// (the §6.1.1 observation: up to 3.25x under apache-75).
	var prev float64
	for i, name := range []string{"apache", "apache-25", "apache-50", "apache-75"} {
		r, err := Run(workload.MustGet(name), shortCfg())
		if err != nil {
			t.Fatal(err)
		}
		sp := r.SpeedupVsLibdft()
		if i > 0 && sp < prev*0.95 {
			t.Errorf("%s speedup %.2f not >= previous %.2f", name, sp, prev)
		}
		prev = sp
	}
}

func TestNoFalseNegativesInAcceleration(t *testing.T) {
	// Every tainted event must be executed in software mode or trigger the
	// switch (i.e., never silently executed under hardware monitoring) —
	// the accuracy-preservation claim. We verify via mode accounting: if a
	// tainted event arrives in hardware mode, the simulator must switch.
	// Run a fragmented benchmark and check that SW instructions cover at
	// least the tainted fraction.
	p := workload.MustGet("sphinx3")
	r, err := Run(p, shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	taintedApprox := float64(r.Events) * p.TaintPct / 100
	if float64(r.SWInstrs) < taintedApprox*0.99 {
		t.Errorf("SW instructions %d below tainted count %.0f", r.SWInstrs, taintedApprox)
	}
}

func TestBreakdownComponentsPresent(t *testing.T) {
	r, err := Run(workload.MustGet("soplex"), shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles.Libdft == 0 {
		t.Error("no libdft cycles for a taint-heavy benchmark")
	}
	if r.Cycles.Xfer == 0 {
		t.Error("no transfer cycles despite switches")
	}
	if r.Cycles.FPCheck == 0 {
		t.Error("no FP-check cycles")
	}
	sum := r.Cycles.Base + r.Cycles.Libdft + r.Cycles.Xfer + r.Cycles.FPCheck + r.Cycles.CTCMiss + r.Cycles.Scan
	if sum != r.TotalCycles() {
		t.Error("breakdown does not sum to total")
	}
}

func BenchmarkSLatchApache(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Events = uint64(b.N)
	if _, err := Run(workload.MustGet("apache"), cfg); err != nil {
		b.Fatal(err)
	}
}
