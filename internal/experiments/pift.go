package experiments

import (
	"context"

	"latch/internal/dift"
	"latch/internal/isa"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/stats"
	"latch/internal/vm"
	"latch/internal/workload"
)

// PIFT compares classical DTA against the PIFT-style approximate
// propagation ([56] in the paper's related work) on the real program
// suite: PIFT drops taint at every computation, so programs whose output
// is computed (checksum, caesar) under-taint, while pure-movement programs
// (copyloop) are tracked identically. LATCH's coarse layer composes with
// either rule set.
func (r *Runner) PIFT() (*stats.Table, error) {
	t := stats.NewTable("Classical DTA vs PIFT-style propagation (tainted bytes at exit)",
		"program", "classical", "pift", "under-tainted %")
	rows := make([][]any, len(cosimCases))
	err := r.runJobs("pift", cosimCaseNames(), func(i int, name string, js *JobStat) error {
		c := cosimCases[i]
		classical, err := runWithMode(c, r.policy(), policy.PropagationClassical)
		if err != nil {
			return err
		}
		pift, err := runWithMode(c, r.policy(), policy.PropagationPIFT)
		if err != nil {
			return err
		}
		var under float64
		if classical > 0 {
			under = 100 * float64(classical-pift) / float64(classical)
		}
		rows[i] = []any{c.name, classical, pift, under}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRowf(row...)
	}
	return t, nil
}

// runWithMode executes one scenario under the given propagation mode and
// returns the tainted byte count at exit.
func runWithMode(c cosimCase, pol policy.Policy, mode policy.Propagation) (uint64, error) {
	pol.Propagation = mode
	sh := shadow.MustNew(shadow.DefaultDomainSize)
	eng := dift.NewEngine(sh, pol)
	m := vm.New()
	m.SetTracker(eng)
	c.setup(m.Env)
	src, err := workload.ProgramSource(c.program)
	if err != nil {
		return 0, err
	}
	prog, err := isa.Assemble(src)
	if err != nil {
		return 0, err
	}
	m.Load(prog)
	if _, err := m.Run(context.Background(), 1_000_000); err != nil {
		return 0, err
	}
	return sh.TaintedBytes(), nil
}
