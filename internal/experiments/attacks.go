package experiments

import (
	"context"
	"errors"
	"fmt"

	"latch/internal/cosim"
	"latch/internal/dift"
	"latch/internal/engine"
	"latch/internal/isa"
	"latch/internal/policy"
	"latch/internal/stats"
	"latch/internal/vm"
	"latch/internal/workload"
)

// attackCase is one canned end-to-end attack: a vulnerable mini-program
// plus the malicious input that triggers it. The matrix records, per
// monitoring stack and propagation rule set, whether the checker catches
// it — the detection side of ROADMAP item 4(b), complementing the
// overhead tables.
type attackCase struct {
	name string
	// program is the workload mini-program under attack.
	program string
	// setup installs the malicious input.
	setup func(*vm.Env)
}

var attackCases = []attackCase{
	// overflow: 16 bytes fill the buffer, 4 more smash the adjacent
	// function pointer; the tainted value flows load->call with no ALU in
	// between, so both propagation rule sets catch the hijack.
	{"overflow", "overflow", func(e *vm.Env) {
		attack := make([]byte, 20)
		copy(attack[16:], []byte{0x00, 0x10, 0x00, 0x00})
		e.FileData = attack
	}},
	// taintjump: the dispatch offset flows load->add->jr. Classical DTA
	// carries taint through the add; PIFT clears it and misses the hijack.
	{"taintjump", "taintjump", func(e *vm.Env) {
		e.FileData = []byte{0, 0, 0, 0}
	}},
	// launder: the secret is exfiltrated byte-identically through an
	// identity substitution table (§3.3.2). The address-based flow escapes
	// both rule sets — the canonical DTA blind spot.
	{"launder", "launder", func(e *vm.Env) {
		e.FileData = []byte("hunter2: the launderable secret!")
	}},
}

// attackCaseNames lists the attack names, for pool fan-out.
func attackCaseNames() []string {
	names := make([]string, len(attackCases))
	for i, c := range attackCases {
		names[i] = c.name
	}
	return names
}

// attackStacks lists the monitoring stacks of the matrix: the conventional
// byte-precise reference plus every registered backend, co-simulated over
// the same program and input.
func attackStacks() []string {
	return append([]string{"reference"}, engine.Names()...)
}

// runAttack executes one attack on one stack under one propagation mode
// and reports the detection verdict cell.
func (r *Runner) runAttack(c attackCase, stack string, mode policy.Propagation) (string, error) {
	pol := r.policy()
	pol.Propagation = mode
	pol.FailFast = true
	pol.CheckLeak = true // the launder verdict is only meaningful with the sink check armed
	src, err := workload.ProgramSource(c.program)
	if err != nil {
		return "", err
	}
	run := func() error {
		if stack == "reference" {
			ref, err := engine.NewReference(pol)
			if err != nil {
				return err
			}
			c.setup(ref.Machine.Env)
			prog, err := isa.Assemble(src)
			if err != nil {
				return err
			}
			_, err = ref.RunProgram(context.Background(), prog, 1_000_000)
			return err
		}
		mon, err := cosim.NewMonitor(stack, pol, r.passObserver("attacks"))
		if err != nil {
			return err
		}
		c.setup(mon.Machine.Env)
		_, err = mon.Run(context.Background(), src, 1_000_000)
		mon.Result() // finalize: cplatch joins its monitor goroutine
		return err
	}
	err = run()
	var v dift.Violation
	if errors.As(err, &v) {
		return "detected (" + v.Kind.String() + ")", nil
	}
	if err != nil {
		return "", fmt.Errorf("attacks %s on %s: %w", c.name, stack, err)
	}
	return "missed", nil
}

// Attacks renders the detection matrix: every canned attack against every
// monitoring stack under both propagation rule sets. The coarse layers
// never change a verdict — each backend column must equal the reference
// column, which is the detection half of the equivalence argument (§4).
func (r *Runner) Attacks() (*stats.Table, error) {
	stacks := attackStacks()
	cols := append([]string{"attack", "propagation"}, stacks...)
	t := stats.NewTable("Attack detection matrix (canned exploits, per monitoring stack)", cols...)
	modes := []policy.Propagation{policy.PropagationClassical, policy.PropagationPIFT}
	rows := make([][][]any, len(attackCases))
	err := r.runJobs("attacks", attackCaseNames(), func(i int, name string, js *JobStat) error {
		c := attackCases[i]
		rows[i] = make([][]any, len(modes))
		for mi, mode := range modes {
			row := []any{c.name, mode.String()}
			for _, stack := range stacks {
				cell, err := r.runAttack(c, stack, mode)
				if err != nil {
					return err
				}
				row = append(row, cell)
			}
			rows[i][mi] = row
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, byMode := range rows {
		for _, row := range byMode {
			t.AddRowf(row...)
		}
	}
	return t, nil
}
