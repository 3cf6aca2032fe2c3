package experiments

import (
	"context"
	"errors"
	"testing"

	"latch/internal/cosim"
	"latch/internal/dift"
	"latch/internal/engine"
	"latch/internal/isa"
	"latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/telemetry"
	"latch/internal/vm"
	"latch/internal/workload"
)

// TestBackendTablesObserverInvariant pins the registry-wide observer
// guarantee: every registered backend renders a byte-identical golden table
// whether or not telemetry is attached.
func TestBackendTablesObserverInvariant(t *testing.T) {
	names := engine.Names()
	if len(names) < 3 {
		t.Fatalf("registry has %v, want the three paper integrations", names)
	}
	plain := NewRunner(Options{Events: 60_000})
	observed := NewRunner(Options{Events: 60_000, Observer: telemetry.NewMetrics()})
	for _, name := range names {
		pt, err := plain.BackendTable(name)
		if err != nil {
			t.Fatal(err)
		}
		ot, err := observed.BackendTable(name)
		if err != nil {
			t.Fatal(err)
		}
		if pt.String() != ot.String() {
			t.Errorf("backend %s: table changed under observation\nplain:\n%s\nobserved:\n%s",
				name, pt, ot)
		}
	}
}

// TestBackendsMatchConventionalDIFTViolations pins the registry-wide
// soundness guarantee: for every registered backend, running the cosim
// workload catalog (plus the overflow exploit) through the Monitor yields
// exactly the violation outcomes of a conventional byte-precise DIFT run.
func TestBackendsMatchConventionalDIFTViolations(t *testing.T) {
	cases := append([]cosimCase(nil), cosimCases...)
	cases = append(cases, cosimCase{"overflow-attack", "overflow", func(e *vm.Env) {
		e.FileData = append(make([]byte, 16), 0x00, 0x10, 0x00, 0x00)
	}})
	for _, name := range engine.Names() {
		for _, c := range cases {
			want := runConventionalDIFT(t, c)
			got := runMonitored(t, name, c)
			if (want == nil) != (got == nil) {
				t.Errorf("%s/%s: violation mismatch: conventional=%v backend=%v",
					name, c.name, want, got)
				continue
			}
			if want == nil {
				continue
			}
			var wv, gv dift.Violation
			if !errors.As(want, &wv) || !errors.As(got, &gv) || wv.Kind != gv.Kind {
				t.Errorf("%s/%s: violation kind mismatch: conventional=%v backend=%v",
					name, c.name, want, got)
			}
		}
	}
}

// runMonitored executes one catalog case with the named backend observing
// the commit stream through cosim.Monitor.
func runMonitored(t *testing.T, backend string, c cosimCase) error {
	t.Helper()
	m, err := cosim.NewMonitor(backend, policy.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c.setup(m.Machine.Env)
	src, err := workload.ProgramSource(c.program)
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run(context.Background(), src, 1_000_000)
	if res := m.Result(); res.EventCount() == 0 {
		t.Fatalf("%s/%s: backend saw no events", backend, c.name)
	}
	if run.Violation != nil {
		return *run.Violation // as the conventional machine returns it
	}
	return err
}

// runConventionalDIFT executes one catalog case under the plain
// byte-precise engine with no LATCH hardware at all.
func runConventionalDIFT(t *testing.T, c cosimCase) error {
	t.Helper()
	sh, err := shadow.New(latch.DefaultConfig().DomainSize)
	if err != nil {
		t.Fatal(err)
	}
	cpu := vm.New()
	cpu.SetTracker(dift.NewEngine(sh, policy.Default()))
	c.setup(cpu.Env)
	src, err := workload.ProgramSource(c.program)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cpu.Load(prog)
	_, err = cpu.Run(context.Background(), 1_000_000)
	return err
}
