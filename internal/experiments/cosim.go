package experiments

import (
	"context"

	"fmt"

	"latch/internal/cosim"
	"latch/internal/slatch"
	"latch/internal/stats"
	"latch/internal/vm"
	"latch/internal/workload"
)

// cosimCase is one end-to-end S-LATCH co-simulation scenario: a real LA32
// program with real taint sources, executed under the full two-mode
// protocol (Figure 9).
type cosimCase struct {
	name    string
	program string
	setup   func(*vm.Env)
}

var cosimCases = []cosimCase{
	{"copyloop", "copyloop", func(e *vm.Env) {
		e.FileData = []byte("thirty-two bytes of tainted in!!")
	}},
	{"substitution", "substitution", func(e *vm.Env) {
		e.FileData = []byte("compressible aaaa bbbb cccc dddd")
	}},
	{"parser", "parser", func(e *vm.Env) {
		e.FileData = []byte("scan these words for separators here")
	}},
	{"server", "server", func(e *vm.Env) {
		for i := 0; i < 8; i++ {
			e.Requests = append(e.Requests, []byte(fmt.Sprintf("GET /page/%d HTTP/1.0", i)))
		}
	}},
	{"overflow-benign", "overflow", func(e *vm.Env) {
		e.FileData = []byte("short")
	}},
	{"rle", "rle", func(e *vm.Env) {
		e.FileData = []byte("aaaaaaaabbbbbbbbccccccccdddddddd")
	}},
	{"checksum", "checksum", func(e *vm.Env) {
		e.FileData = []byte("data to be checksummed end to end!!!")
	}},
	{"caesar", "caesar", func(e *vm.Env) {
		e.FileData = []byte("rotate thirteen")
	}},
	{"filter", "filter", func(e *vm.Env) {
		e.FileData = []byte("strip\x01\x02the\x03controls")
	}},
	{"pipeline", "pipeline", func(e *vm.Env) {
		e.FileData = []byte("stage me through three kernels")
	}},
}

// cosimCaseNames lists the scenario names, for pool fan-out.
func cosimCaseNames() []string {
	names := make([]string, len(cosimCases))
	for i, c := range cosimCases {
		names[i] = c.name
	}
	return names
}

// ParallelCoSim runs the scenarios on the two-core P-LATCH co-simulation:
// the monitored core executes natively with the LATCH filter deciding which
// committed instructions enter the shared log; a lagging monitor replays
// the log through the byte-precise engine. The unfiltered LBA baseline runs
// the same programs for comparison. Each scenario (filtered + baseline
// pair) is one pool job; the VM runs are deterministic, so the fan-out
// cannot change the table.
func (r *Runner) ParallelCoSim() (*stats.Table, error) {
	t := stats.NewTable("Two-core P-LATCH co-simulation (real LA32 programs, LBA service 3.38 cycles/entry)",
		"program", "instructions", "logged % (filtered)", "overhead (filtered)", "overhead (baseline LBA)", "max queue")
	rows := make([][]any, len(cosimCases))
	err := r.runJobs("platch-cosim", cosimCaseNames(), func(i int, name string, js *JobStat) error {
		c := cosimCases[i]
		run := func(filtered bool) (cosim.ParallelStats, error) {
			cfg := cosim.DefaultParallelConfig()
			cfg.Filtered = filtered
			cfg.Observer = r.passObserver("platch-cosim")
			sys, err := cosim.NewParallel(cfg, r.policy())
			if err != nil {
				return cosim.ParallelStats{}, err
			}
			c.setup(sys.Machine.Env)
			src, err := workload.ProgramSource(c.program)
			if err != nil {
				return cosim.ParallelStats{}, err
			}
			if _, err := sys.Run(context.Background(), src, 1_000_000); err != nil {
				return cosim.ParallelStats{}, fmt.Errorf("platch-cosim %s: %w", c.name, err)
			}
			return sys.Stats(), nil
		}
		filtered, err := run(true)
		if err != nil {
			return err
		}
		baseline, err := run(false)
		if err != nil {
			return err
		}
		js.Events = filtered.Instructions + baseline.Instructions
		rows[i] = []any{c.name, filtered.Instructions,
			100 * float64(filtered.Enqueued) / float64(filtered.Instructions),
			filtered.Overhead(), baseline.Overhead(), filtered.MaxQueueDepth}
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

// CoSim runs every scenario under the end-to-end S-LATCH co-simulation
// (cosim.Monitor driving the registered slatch backend) and tabulates the
// mode split and overhead against continuous software DIFT. Each scenario
// is one pool job.
func (r *Runner) CoSim() (*stats.Table, error) {
	t := stats.NewTable("End-to-end S-LATCH co-simulation (real LA32 programs, 5x software DIFT)",
		"program", "instructions", "hw %", "sw %", "switches", "false traps", "overhead %", "continuous %")
	rows := make([][]any, len(cosimCases))
	err := r.runJobs("cosim", cosimCaseNames(), func(i int, name string, js *JobStat) error {
		c := cosimCases[i]
		mon, err := cosim.NewMonitor("slatch", r.policy(), r.passObserver("cosim"))
		if err != nil {
			return err
		}
		c.setup(mon.Machine.Env)
		src, err := workload.ProgramSource(c.program)
		if err != nil {
			return err
		}
		if _, err := mon.Run(context.Background(), src, 1_000_000); err != nil {
			return fmt.Errorf("cosim %s: %w", c.name, err)
		}
		res := mon.Result().(slatch.Result)
		n := float64(res.Events)
		js.Events = res.Events
		rows[i] = []any{c.name, res.Events,
			100 * float64(res.HWInstrs) / n, 100 * float64(res.SWInstrs) / n,
			res.Switches, res.FalsePositives,
			100 * res.Overhead(), 100 * res.LibdftOverhead()}
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
