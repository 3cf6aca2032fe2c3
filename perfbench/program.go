package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"latch"
	"latch/internal/engine"
	"latch/internal/workload"
)

// The program workload runs the repository's server program under latch.New
// + System.Run over seeded batches of 16–128 B requests, with DefaultPolicy
// and TrustFraction 0.5. It is the interpreter-heavy path: trusted
// connections run in the taint-free fast loop and tainted ones through full
// DIFT, roughly half the instructions each, so a change to either half
// moves it. The generator, the backends and the server are bypassed.
const (
	programBatches   = 8    // distinct request batches per seed, cycled
	programBatchSize = 1024 // requests per System.Run
	programMaxSteps  = 50_000_000
)

func programPolicy() latch.Policy {
	p := latch.DefaultPolicy()
	p.TrustFraction = 0.5
	return p
}

// programLoad returns the seeded request batches.
func programLoad(seed int64) [][][]byte {
	rng := rand.New(rand.NewSource(subSeed(seed, "program")))
	batches := make([][][]byte, programBatches)
	for b := range batches {
		reqs := make([][]byte, programBatchSize)
		for i := range reqs {
			reqs[i] = asciiBytes(rng, 16+rng.Intn(113))
		}
		batches[b] = reqs
	}
	return batches
}

// asciiBytes returns n printable ASCII bytes, which also survive the JSON
// encoding of a served job unchanged.
func asciiBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(' ' + rng.Intn(95))
	}
	return b
}

// outcome is the observable result of one program run.
type outcome struct {
	exit      uint32
	steps     uint64
	output    string
	violation string
}

func violationString(v *latch.Violation) string {
	if v == nil {
		return ""
	}
	return fmt.Sprintf("%s pc=%#x addr=%#x", v.Kind, v.PC, v.Addr)
}

// newSystem builds a System over the given inputs.
func newSystem(pol latch.Policy, file []byte, reqs [][]byte, opts ...latch.Option) (*latch.System, error) {
	sys, err := latch.New(append([]latch.Option{latch.WithPolicy(pol)}, opts...)...)
	if err != nil {
		return nil, err
	}
	sys.Machine.Env.FileData = file
	sys.Machine.Env.Requests = reqs
	return sys, nil
}

// runSystem runs src on sys and returns its outcome.
func runSystem(sys *latch.System, src string, maxSteps uint64) (outcome, error) {
	res, err := sys.Run(context.Background(), src, maxSteps)
	if err != nil {
		return outcome{}, err
	}
	return outcome{res.ExitCode, res.Steps, sys.Machine.Env.Output.String(), violationString(res.Violation)}, nil
}

// referenceOutcome runs src over the same inputs on engine.Reference, the
// byte-precise DIFT stack without the LATCH module.
func referenceOutcome(pol latch.Policy, src string, file []byte, reqs [][]byte, maxSteps uint64) (outcome, error) {
	ref, err := engine.NewReference(pol)
	if err != nil {
		return outcome{}, err
	}
	ref.Machine.Env.FileData = file
	ref.Machine.Env.Requests = reqs
	prog, err := latch.Assemble(src)
	if err != nil {
		return outcome{}, err
	}
	ref.Machine.Load(prog)
	_, err = ref.Machine.Run(context.Background(), maxSteps)
	o := outcome{exit: ref.Machine.ExitCode(), steps: ref.Machine.Instret(), output: ref.Machine.Env.Output.String()}
	var v latch.Violation
	if errors.As(err, &v) {
		o.violation = violationString(&v)
	} else if err != nil {
		return o, err
	}
	return o, nil
}

// warmProgram assembles the program and runs the first batch once.
func warmProgram(pol latch.Policy, src string, batches [][][]byte) error {
	if _, err := latch.Assemble(src); err != nil {
		return err
	}
	sys, err := newSystem(pol, nil, batches[0])
	if err != nil {
		return err
	}
	_, err = runSystem(sys, src, programMaxSteps)
	return err
}

func measureProgram(seed int64, d time.Duration) (*report, error) {
	src, err := workload.ProgramSource("server")
	if err != nil {
		return nil, err
	}
	pol := programPolicy()
	r := newReport()
	batches, setup, err := timedSetup(func() ([][][]byte, error) {
		batches := programLoad(seed)
		return batches, warmProgram(pol, src, batches)
	}, nil)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", "s", setup)

	first := make([]*outcome, len(batches))
	runs := make([]int64, len(batches))
	var cal calibrator
	var instr uint64
	var runWall, roundCPU time.Duration
	a0 := heapAllocated()
	// A round is one cycle over the batches; the last one is finished.
	for start := time.Now(); time.Since(start) < d || r.attempted%int64(len(batches)) != 0; {
		b := int(r.attempted) % len(batches)
		r.attempted++
		sys, err := newSystem(pol, nil, batches[b])
		if err != nil {
			return nil, err
		}
		c0 := cpuTime()
		cal.sample()
		t0 := time.Now()
		o, err := runSystem(sys, src, programMaxSteps)
		el := time.Since(t0)
		roundCPU += cpuTime() - c0
		if b == len(batches)-1 {
			cal.round(roundCPU, len(batches))
			roundCPU = 0
		}
		if err != nil {
			r.fail("batch %d: %v", b, err)
			continue
		}
		if first[b] == nil {
			first[b] = &o
		} else if o != *first[b] {
			r.fail("batch %d: outcome changed between runs", b)
			continue
		}
		runs[b]++
		runWall += el
		instr += o.steps
	}
	allocated := heapAllocated() - a0
	if instr == 0 {
		return nil, fmt.Errorf("every run failed: %v", r.problems)
	}
	// Each batch's outcome must equal the reference stack's; checked after
	// the timed loop, and a mismatch fails every run of that batch.
	for b, o := range first {
		if o == nil {
			continue
		}
		ref, err := referenceOutcome(pol, src, nil, batches[b], programMaxSteps)
		if err != nil || ref != *o {
			r.failOps(runs[b], "batch %d: outcome %+v, reference %+v (%v)", b, *o, ref, err)
		}
	}
	r.setWork(&cal, allocated, int(r.attempted))
	r.setNamed("program_mips", "Minstr/s", float64(instr)/runWall.Seconds()/1e6)
	return r, nil
}
