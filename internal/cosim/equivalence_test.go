package cosim

import (
	"context"
	"testing"

	"latch/internal/dift"
	"latch/internal/isa"
	"latch/internal/mem"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/vm"
	"latch/internal/workload"
)

// The accuracy-preservation claim, end to end: for every built-in program
// and input, the final byte-precise taint state under (a) pure DIFT,
// (b) the S-LATCH co-simulation, and (c) the P-LATCH two-core
// co-simulation (after draining) must be identical, and so must the
// machine's architectural state.

type finalState struct {
	regs     [isa.NumRegs]uint32
	exitCode uint32
	output   string
	tainted  map[uint32]shadow.Tag
}

func taintSnapshot(sh *shadow.Shadow) map[uint32]shadow.Tag {
	out := make(map[uint32]shadow.Tag)
	for _, pn := range sh.EverTaintedPageNumbers() {
		base := pn << mem.PageShift
		for off := uint32(0); off < mem.PageSize; off++ {
			if tag := sh.Get(base + off); tag != shadow.TagClean {
				out[base+off] = tag
			}
		}
	}
	return out
}

func runPure(t *testing.T, src string, input []byte, requests [][]byte) (finalState, error) {
	t.Helper()
	sh := shadow.MustNew(shadow.DefaultDomainSize)
	eng := dift.NewEngine(sh, policy.Default())
	m := vm.New()
	m.SetTracker(eng)
	m.Env.FileData = input
	m.Env.Requests = requests
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m.Load(prog)
	_, runErr := m.Run(context.Background(), 1_000_000)
	return finalState{
		regs: m.Regs, exitCode: m.ExitCode(),
		output: m.Env.Output.String(), tainted: taintSnapshot(sh),
	}, runErr
}

func runSLatchCosim(t *testing.T, src string, input []byte, requests [][]byte) (finalState, error) {
	t.Helper()
	mon := newSLatch(t)
	mon.Machine.Env.FileData = input
	mon.Machine.Env.Requests = requests
	_, runErr := mon.Run(context.Background(), src, 1_000_000)
	return finalState{
		regs: mon.Machine.Regs, exitCode: mon.Machine.ExitCode(),
		output: mon.Machine.Env.Output.String(), tainted: taintSnapshot(mon.Session.Shadow),
	}, runErr
}

func runParallelCosim(t *testing.T, src string, input []byte, requests [][]byte) (finalState, int, error) {
	t.Helper()
	sys, err := NewParallel(DefaultParallelConfig(), policy.Default())
	if err != nil {
		t.Fatal(err)
	}
	sys.Machine.Env.FileData = input
	sys.Machine.Env.Requests = requests
	_, runErr := sys.Run(context.Background(), src, 1_000_000)
	sys.drain()
	return finalState{
		regs: sys.Machine.Regs, exitCode: sys.Machine.ExitCode(),
		output: sys.Machine.Env.Output.String(), tainted: taintSnapshot(sys.Shadow),
	}, len(sys.Violations()), runErr
}

func sameTaint(t *testing.T, label string, a, b map[uint32]shadow.Tag) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s: tainted byte counts differ: %d vs %d", label, len(a), len(b))
		return
	}
	for addr, tag := range a {
		if b[addr] != tag {
			t.Errorf("%s: taint at %#x differs: %v vs %v", label, addr, tag, b[addr])
			return
		}
	}
}

func TestExecutionEquivalenceAcrossConfigurations(t *testing.T) {
	cases := []struct {
		program  string
		input    []byte
		requests [][]byte
	}{
		{"copyloop", []byte("equivalence check input"), nil},
		{"substitution", []byte("laundered through a table"), nil},
		{"parser", []byte("count the spaces here"), nil},
		{"rle", []byte("aabbbccccddddd"), nil},
		{"checksum", []byte("fletcher over this buffer"), nil},
		{"caesar", []byte("rot thirteen me"), nil},
		{"filter", []byte("keep\x01these\x02chars"), nil},
		{"overflow", []byte("benign"), nil},
		{"pipeline", []byte("staged aaa bbb ccc"), nil},
		{"server", nil, [][]byte{[]byte("GET /a"), []byte("GET /bb"), []byte("GET /ccc")}},
	}
	for _, c := range cases {
		src, err := workload.ProgramSource(c.program)
		if err != nil {
			t.Fatal(err)
		}
		pure, errPure := runPure(t, src, c.input, c.requests)
		slatch, errS := runSLatchCosim(t, src, c.input, c.requests)
		parallel, nViol, errP := runParallelCosim(t, src, c.input, c.requests)

		if errPure != nil || errS != nil || errP != nil {
			t.Fatalf("%s: run errors: pure=%v slatch=%v parallel=%v", c.program, errPure, errS, errP)
		}
		if pure.regs != slatch.regs || pure.regs != parallel.regs {
			t.Errorf("%s: architectural registers diverge", c.program)
		}
		if pure.exitCode != slatch.exitCode || pure.exitCode != parallel.exitCode {
			t.Errorf("%s: exit codes diverge: %d / %d / %d",
				c.program, pure.exitCode, slatch.exitCode, parallel.exitCode)
		}
		if pure.output != slatch.output || pure.output != parallel.output {
			t.Errorf("%s: outputs diverge", c.program)
		}
		sameTaint(t, c.program+" pure-vs-slatch", pure.tainted, slatch.tainted)
		sameTaint(t, c.program+" pure-vs-parallel", pure.tainted, parallel.tainted)
		if nViol != 0 {
			t.Errorf("%s: benign run produced %d deferred violations", c.program, nViol)
		}
	}
}

func TestAttackDetectedInAllConfigurations(t *testing.T) {
	src, err := workload.ProgramSource("overflow")
	if err != nil {
		t.Fatal(err)
	}
	attack := append(make([]byte, 16), 0x00, 0x10, 0x00, 0x00)

	if _, err := runPure(t, src, attack, nil); err == nil {
		t.Error("pure DIFT missed the attack")
	}
	if _, err := runSLatchCosim(t, src, attack, nil); err == nil {
		t.Error("S-LATCH co-simulation missed the attack")
	}
	// The parallel monitor detects asynchronously: the run itself may
	// wander (step limit), but the violation must be recorded.
	_, nViol, _ := runParallelCosim(t, src, attack, nil)
	if nViol == 0 {
		t.Error("P-LATCH monitor missed the attack")
	}
}
