package latch_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"latch"
	"latch/internal/dift"
	"latch/internal/isa"
	"latch/internal/shadow"
	"latch/internal/vm"
	"latch/internal/workload"
)

// cannedInputs gives every workload mini-program an input that drives its
// taint paths: file bytes for the file readers (the attack inputs of the
// attacks matrix for overflow, taintjump and launder) and a batch of
// requests for the server.
var cannedInputs = map[string]struct {
	file     string
	requests []string
}{
	"caesar":       {file: "Hello, LATCH! attack at dawn"},
	"checksum":     {file: "the quick brown fox jumps over the lazy dog"},
	"copyloop":     {file: "hello world!"},
	"filter":       {file: "ok\x01fine!\x7f\x00tail"},
	"launder":      {file: "hunter2: the launderable secret!"},
	"overflow":     {file: "AAAAAAAAAAAAAAAA\x00\x10\x00\x00"},
	"parser":       {file: "GET / HTTP/1.0 with a few spaces"},
	"pipeline":     {file: "aabbbcdd"},
	"rle":          {file: "aaabccddddde"},
	"server":       {requests: []string{"GET /index.html", "x", "POST /form a=1&b=2", "", strings.Repeat("Q", 128), "HEAD /", "GET /a/b/c?d=e", "PUT /blob 0123456789"}},
	"substitution": {file: "\x00\x01\x7f\x80\xfe\xffsubstitute me"},
	"taintjump":    {file: "\x00\x00\x00\x00"},
}

// programOutcome is what the fast loop must not change about a run.
type programOutcome struct {
	exit                uint32
	steps               uint64
	err                 string
	violations          string
	output              string
	regTaint            [isa.NumRegs]dift.RegTaint
	committed, touching uint64
}

func outcomeOf(eng *dift.Engine, m *vm.CPU, steps uint64, err error) programOutcome {
	o := programOutcome{exit: m.ExitCode(), steps: steps, output: m.Env.Output.String(),
		committed: eng.InstructionsTotal(), touching: eng.InstructionsTainted()}
	var v dift.Violation
	if err != nil && !errors.As(err, &v) {
		o.err = err.Error()
	}
	for _, v := range eng.Violations() {
		o.violations += v.Error() + ";"
	}
	for r := range o.regTaint {
		o.regTaint[r] = eng.RegTaint(r)
	}
	return o
}

// TestCannedProgramsFastLoopMatchesStep runs every workload mini-program on
// its canned input through latch.System.Run, which runs the fast loop past
// tainted registers, and through a Step-only loop over a bare DIFT engine.
// Both must commit and count as tainted the same instructions, raise the
// same violations, write the same output and leave the same register
// taint, under classical DTA and under PIFT with the leak check and half
// the connections trusted.
func TestCannedProgramsFastLoopMatchesStep(t *testing.T) {
	const maxSteps = 1_000_000
	strict := latch.DefaultPolicy()
	strict.Propagation = latch.PropagationPIFT
	strict.CheckLeak = true
	strict.TrustFraction = 0.5
	var fastSteps, tainted uint64
	for _, name := range workload.ProgramNames() {
		in, ok := cannedInputs[name]
		if !ok {
			t.Fatalf("program %s has no canned input", name)
		}
		src, err := workload.ProgramSource(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := latch.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		var reqs [][]byte
		for _, r := range in.requests {
			reqs = append(reqs, []byte(r))
		}
		for _, pol := range []latch.Policy{latch.DefaultPolicy(), strict} {
			sys, err := latch.New(latch.WithPolicy(pol))
			if err != nil {
				t.Fatal(err)
			}
			sys.Machine.Env.FileData, sys.Machine.Env.Requests = []byte(in.file), reqs
			res, err := sys.RunProgram(context.Background(), prog, maxSteps)
			fast := outcomeOf(sys.Engine, sys.Machine, res.Steps, err)
			_, _, s := sys.Machine.FastLoopStats()
			fastSteps += s

			eng := dift.NewEngine(shadow.MustNew(latch.DefaultConfig().DomainSize), pol)
			m := vm.New()
			m.SetTracker(eng)
			m.Env.FileData, m.Env.Requests = []byte(in.file), reqs
			m.Load(prog)
			var steps uint64
			for err = nil; steps < maxSteps && !m.Halted(); steps++ {
				if err = m.Step(); err != nil {
					break
				}
			}
			slow := outcomeOf(eng, m, steps, err)
			tainted += slow.touching

			if fast != slow {
				t.Errorf("%s (%s): System.Run and Step diverge\n fast: %+v\n step: %+v", name, pol.Propagation, fast, slow)
			}
		}
	}
	if fastSteps == 0 || tainted == 0 {
		t.Fatalf("the programs ran %d fast-loop instructions and %d tainted ones; the test needs both", fastSteps, tainted)
	}
}
