package experiments

import (
	"latch/internal/policy"
	"latch/internal/stats"
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
		var tainted [2]uint64
		for k, mode := range []policy.Propagation{policy.PropagationClassical, policy.PropagationPIFT} {
			pol := r.policy()
			pol.Propagation = mode
			ref, res, err := runReference(pol, c.program, c.setup)
			js.Events += res.Steps
			if err != nil {
				return err
			}
			tainted[k] = ref.Shadow.TaintedBytes()
		}
		classical, pift := tainted[0], tainted[1]
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
