// Package diffcheck is the differential checker behind `latch-fuzz`, the
// FuzzBackendEquivalence fuzz target, and the `make diffcheck` smoke tier.
//
// LATCH's correctness argument (§4, §6.2) is that the coarse CTT/CTC/TLB
// filter plus the byte-precise fallback is observationally equivalent to
// conventional byte-precise DIFT: the coarse state may raise false
// positives, which the precise filter dismisses, but it must never miss
// taint. diffcheck checks that property mechanically. For each seeded case
// it generates a random valid LA32 program with taint sources, sinks, and
// Table 5 extensions (internal/isa.RandomProgram), runs it once under the
// conventional reference (engine.Reference: the dift engine alone) and once
// per registered backend under cosim.Monitor (the same machine with the
// coarse module and backend in the loop), and asserts that the two sides
// are indistinguishable: identical architectural state, identical violation
// sets, identical final byte-precise taint. A per-event oracle additionally
// asserts coarse soundness on the monitored side — after every memory
// commit, each precisely tainted byte of the operand must be visible in the
// CTT and the TLB page taint bits (false positives allowed, false negatives
// never).
//
// The checker is policy-aware: seeds rotate through a set of selective-
// tracing fractions (CasePolicy), both sides of every run share the
// identical sampled policy, the oracle additionally re-derives each
// sampling decision from the declarative spec and asserts sampled-out
// source ranges stay byte-precisely clean, and full-tracing seeds anchor
// the axis by requiring a fraction-1.0 policy to be byte-identical to an
// unsampled one.
//
// Everything is seeded through the workload seed-derivation scheme, so a
// failing case replays byte-for-byte from its seed alone. On failure the
// checker minimizes the program (see Minimize) and writes a reproducer to
// the corpus directory (testdata/diffcheck in-tree) for regression replay.
package diffcheck

import (
	"context"

	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"latch/internal/cosim"
	"latch/internal/dift"
	"latch/internal/engine"
	"latch/internal/isa"
	"latch/internal/mem"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/workload"

	// Register the three paper integrations with the backend registry.
	_ "latch/internal/hlatch"
	_ "latch/internal/platch"
	_ "latch/internal/slatch"
)

// Origin is the fixed load address of generated programs.
const Origin uint32 = 0x1000

// DefaultMaxSteps bounds one case's execution. Generated control flow is
// forward-only, but a deliberately corrupted indirect jump can land
// anywhere; the budget makes even those cases terminate identically on both
// sides of the differential run.
const DefaultMaxSteps = 4096

// Case is one self-contained differential input: a program and the
// deterministic external world it runs against. A Case is fully derived
// from its seed; minimized cases keep the seed they came from.
type Case struct {
	Seed     int64
	Instrs   []isa.Instr
	Input    []byte   // file-source bytes (SysRead)
	Requests [][]byte // inbound connections (SysAccept/SysRecv)
	MaxSteps uint64
}

// BuildCase derives the complete case for seed: program shape and external
// input each come from independently derived sub-seeds, the scheme every
// generator in the tree uses, so replaying a seed rebuilds the identical
// case on any machine.
func BuildCase(seed int64) Case {
	prng := rand.New(rand.NewSource(workload.DeriveSeed(seed, "diffcheck", "program")))
	cfg := isa.DefaultGenConfig()
	cfg.Origin = Origin
	cfg.Body = 96 + prng.Intn(160)
	instrs := isa.RandomProgram(prng, cfg)

	irng := rand.New(rand.NewSource(workload.DeriveSeed(seed, "diffcheck", "input")))
	input := make([]byte, 1+irng.Intn(64))
	irng.Read(input)
	reqs := make([][]byte, irng.Intn(3))
	for i := range reqs {
		reqs[i] = make([]byte, 1+irng.Intn(32))
		irng.Read(reqs[i])
	}
	return Case{Seed: seed, Instrs: instrs, Input: input, Requests: reqs, MaxSteps: DefaultMaxSteps}
}

// Program encodes the case's instruction sequence into a loadable image.
func (c Case) Program() (*isa.Program, error) {
	return isa.BuildProgram(Origin, c.Instrs)
}

// basePolicy is the differential policy: every source tainted, every check
// enabled, and — crucially — FailFast off, so violations are recorded as
// data and execution continues; the two sides then remain comparable past
// the first positive instead of racing to their first error return.
func basePolicy() policy.Policy {
	return policy.Policy{
		TaintFile:        true,
		TaintNet:         true,
		CheckControlFlow: true,
		CheckLeak:        true,
	}
}

// caseFractions is the selective-tracing axis of the differential search:
// seeds rotate through these sampling fractions, so the corpus and every
// fresh fuzz batch cover full tracing (the byte-identity anchor) and three
// sampled-down policies.
var caseFractions = []float64{1.0, 1.0, 0.5, 0.25, 0.1}

// CasePolicy derives the policy a seed runs under: the differential base
// policy plus a seed-derived sampling spec. Both sides of every run — the
// conventional reference and each backend monitor — use the identical
// policy, extending the equivalence claim to selective tracing: a sampled
// reference and a sampled backend must still be indistinguishable.
// Deterministic per seed, so minimization and corpus replay reproduce the
// exact failing policy.
func CasePolicy(seed int64) policy.Policy {
	pol := basePolicy()
	pol.Sampling = policy.Sampling{
		SampleFraction: caseFractions[uint64(seed)%uint64(len(caseFractions))],
		SampleSeed:     uint64(seed),
	}
	return pol
}

// Outcome is everything observable about one run of a case: architectural
// state, external output, the ordered violation set, and a digest of the
// final byte-precise taint state.
type Outcome struct {
	Exit       uint32
	PC         uint32
	Regs       [isa.NumRegs]uint32
	Instret    uint64
	Output     string
	Err        string // normalized run error ("" for clean exit)
	Violations []string
	TaintCount int    // tainted bytes in the final shadow state
	TaintHash  uint64 // order-independent digest of (addr, tag) pairs
}

// Diff reports the first observable difference between o and ref, or ""
// when the runs are indistinguishable.
func (o Outcome) Diff(ref Outcome) string {
	switch {
	case o.Err != ref.Err:
		return fmt.Sprintf("run error %q, reference %q", o.Err, ref.Err)
	case o.Exit != ref.Exit:
		return fmt.Sprintf("exit code %d, reference %d", o.Exit, ref.Exit)
	case o.Instret != ref.Instret:
		return fmt.Sprintf("instret %d, reference %d", o.Instret, ref.Instret)
	case o.PC != ref.PC:
		return fmt.Sprintf("final pc %#x, reference %#x", o.PC, ref.PC)
	case o.Regs != ref.Regs:
		for i := range o.Regs {
			if o.Regs[i] != ref.Regs[i] {
				return fmt.Sprintf("r%d = %#x, reference %#x", i, o.Regs[i], ref.Regs[i])
			}
		}
	case o.Output != ref.Output:
		return fmt.Sprintf("output %q, reference %q", o.Output, ref.Output)
	case len(o.Violations) != len(ref.Violations):
		return fmt.Sprintf("%d violations, reference %d", len(o.Violations), len(ref.Violations))
	case o.TaintCount != ref.TaintCount || o.TaintHash != ref.TaintHash:
		return fmt.Sprintf("final taint (%d bytes, digest %#x), reference (%d bytes, digest %#x)",
			o.TaintCount, o.TaintHash, ref.TaintCount, ref.TaintHash)
	}
	for i := range o.Violations {
		if o.Violations[i] != ref.Violations[i] {
			return fmt.Sprintf("violation %d is %q, reference %q", i, o.Violations[i], ref.Violations[i])
		}
	}
	return ""
}

// taintDigest summarizes sh's byte-precise taint as a count and an
// order-independent FNV digest over (address, tag) pairs, walking only the
// pages that ever held taint.
func taintDigest(sh *shadow.Shadow) (count int, digest uint64) {
	pages := sh.EverTaintedPageNumbers()
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	h := fnv.New64a()
	var rec [5]byte
	for _, pn := range pages {
		base := pn * mem.PageSize
		for off := uint32(0); off < mem.PageSize; off++ {
			tag := sh.Get(base + off)
			if tag == shadow.TagClean {
				continue
			}
			count++
			a := base + off
			rec = [5]byte{byte(a), byte(a >> 8), byte(a >> 16), byte(a >> 24), byte(tag)}
			h.Write(rec[:])
		}
	}
	return count, h.Sum64()
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func violationStrings(vs []dift.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Error()
	}
	return out
}

// RunReference executes c under the conventional byte-precise DIFT stack
// with the case's seed-derived policy and captures its outcome.
func RunReference(c Case) (Outcome, error) {
	return runReferencePolicy(c, CasePolicy(c.Seed))
}

// runReferencePolicy is RunReference under an explicit policy.
func runReferencePolicy(c Case, pol policy.Policy) (Outcome, error) {
	prog, err := c.Program()
	if err != nil {
		return Outcome{}, err
	}
	ref, err := engine.NewReference(pol)
	if err != nil {
		return Outcome{}, err
	}
	ref.Machine.Env.FileData = append([]byte(nil), c.Input...)
	ref.Machine.Env.Requests = copyRequests(c.Requests)
	_, runErr := ref.RunProgram(context.Background(), prog, c.MaxSteps)
	out := Outcome{
		Exit:       ref.Machine.ExitCode(),
		PC:         ref.Machine.PC,
		Regs:       ref.Machine.Regs,
		Instret:    ref.Machine.Instret(),
		Output:     ref.Machine.Env.Output.String(),
		Err:        errString(runErr),
		Violations: violationStrings(ref.Engine.Violations()),
	}
	out.TaintCount, out.TaintHash = taintDigest(ref.Shadow)
	return out, nil
}

// RunBackend executes c under the named backend via cosim.Monitor with the
// coarse-soundness oracle installed, and captures its outcome. oracleFail
// is "" unless the oracle observed a precisely tainted operand byte the
// coarse state could not see.
func RunBackend(name string, c Case) (out Outcome, oracleFail string, err error) {
	prog, err := c.Program()
	if err != nil {
		return Outcome{}, "", err
	}
	pol := CasePolicy(c.Seed)
	mon, err := cosim.NewMonitor(name, pol, nil)
	if err != nil {
		return Outcome{}, "", err
	}
	// Finalize the backend no matter how the run ends: the concurrent
	// backend closes its ring and joins its monitor goroutine in Finish,
	// and a divergence hunt runs thousands of cases back to back.
	defer mon.Result()
	orc := &oracleTracker{Monitor: mon, pol: pol, sampler: pol.Sampler()}
	mon.Machine.SetTracker(orc)
	mon.Machine.Env.FileData = append([]byte(nil), c.Input...)
	mon.Machine.Env.Requests = copyRequests(c.Requests)
	_, runErr := mon.RunProgram(context.Background(), prog, c.MaxSteps)
	out = Outcome{
		Exit:       mon.Machine.ExitCode(),
		PC:         mon.Machine.PC,
		Regs:       mon.Machine.Regs,
		Instret:    mon.Machine.Instret(),
		Output:     mon.Machine.Env.Output.String(),
		Err:        errString(runErr),
		Violations: violationStrings(mon.Engine.Violations()),
	}
	out.TaintCount, out.TaintHash = taintDigest(mon.Session.Shadow)
	return out, orc.failure, nil
}

// oracleTracker wraps the Monitor's tracker role with the per-event coarse
// soundness check: after every committed memory access, each byte of the
// operand that the precise shadow state marks tainted must be visible both
// in the CTT (domain bit) and in the TLB's page taint bits. This is the
// no-false-negatives half of the §6.2 argument — the half the precise
// filter cannot compensate for.
type oracleTracker struct {
	*cosim.Monitor
	failure string
	// pol, sampler, and ordinals independently re-derive the policy's
	// source-sampling decisions for the selective-tracing oracle: the
	// tracker counts source events exactly as the engine does, so a
	// disagreement means the engine strayed from the declared spec.
	pol      policy.Policy
	sampler  policy.Sampler
	ordinals [2]uint64
}

// Commit delegates to the monitor (backend step + precise propagation),
// then probes the coarse state the access just updated.
func (o *oracleTracker) Commit(pc uint32, in isa.Instr, addr uint32) error {
	err := o.Monitor.Commit(pc, in, addr)
	if o.failure == "" {
		if n := in.Op.MemSize(); n > 0 {
			o.checkCoarse(pc, addr, n)
		}
	}
	return err
}

// Input delegates to the monitor, then replays the sampling decision from
// the declarative spec alone: a source event the policy samples out (or
// never taints) must leave its range byte-precisely clean — the
// sampled-out-sources-stay-clean half of the selective-tracing contract.
// The converse (a sampled-in event is tainted) is covered by the
// differential diff against the reference, which taints under the same
// policy.
func (o *oracleTracker) Input(addr uint32, n int, source dift.InputSource, conn int) {
	ord := o.ordinals[source]
	o.ordinals[source]++
	o.Monitor.Input(addr, n, source, conn)
	if o.failure != "" {
		return
	}
	tainted := false
	switch source {
	case dift.SourceFile:
		tainted = o.pol.TaintFile
	case dift.SourceNet:
		tainted = o.pol.TaintNet && !o.sampler.Trust(o.pol.TrustFraction, conn)
	}
	if tainted && o.sampler.Sample(policy.Kind(source), ord) {
		return // sampled in: the diff against the reference owns this case
	}
	sh := o.Session.Shadow
	for i := 0; i < n; i++ {
		if b := addr + uint32(i); sh.Get(b) != shadow.TagClean {
			o.failure = fmt.Sprintf("sampled-out %v event %d left byte %#x tainted (tag %#02x)",
				source, ord, b, sh.Get(b))
			return
		}
	}
}

func (o *oracleTracker) checkCoarse(pc, addr uint32, n int) {
	sh := o.Session.Shadow
	mod := o.Session.Module
	pdSize := uint32(mem.PageSize) / uint32(mod.Config().PageDomains())
	for i := 0; i < n; i++ {
		b := addr + uint32(i)
		if sh.Get(b) == shadow.TagClean {
			continue
		}
		if !mod.CTT().Bit(sh.DomainIndex(b)) {
			o.failure = fmt.Sprintf("pc=%#x: tainted byte %#x invisible in CTT domain %d", pc, b, sh.DomainIndex(b))
			return
		}
		pn := mem.PageNumber(b)
		if pdIdx := (b % mem.PageSize) / pdSize; mod.PageTaintBits(pn)&(1<<pdIdx) == 0 {
			o.failure = fmt.Sprintf("pc=%#x: tainted byte %#x invisible in page %#x taint bit %d", pc, b, pn, pdIdx)
			return
		}
	}
}

func copyRequests(reqs [][]byte) [][]byte {
	if len(reqs) == 0 {
		return nil
	}
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = append([]byte(nil), r...)
	}
	return out
}

// Failure describes one differential finding.
type Failure struct {
	Kind    string // "panic", "oracle", or "divergence"
	Backend string // backend under test, or "reference"
	Detail  string
}

// String renders the failure on one line.
func (f *Failure) String() string {
	return fmt.Sprintf("%s [%s]: %s", f.Kind, f.Backend, f.Detail)
}

// Same reports whether two failures are the same finding for minimization
// purposes: identical kind on the identical component.
func (f *Failure) Same(g *Failure) bool {
	return f != nil && g != nil && f.Kind == g.Kind && f.Backend == g.Backend
}

// CheckCase runs c under the reference and every named backend and returns
// the first failure, or nil when all runs are equivalent. A panic in any
// run — the simulator must be total over generated inputs — is itself a
// finding, reported with the panic value as detail.
func CheckCase(c Case, backends []string) *Failure {
	ref, refFail := runProtected(func() (Outcome, string, error) {
		out, err := RunReference(c)
		return out, "", err
	})
	if refFail != nil {
		refFail.Backend = "reference"
		return refFail
	}
	if CasePolicy(c.Seed).Sampling.SampleFraction == 1.0 {
		// Full-tracing anchor: a policy sampling at fraction 1.0 must be
		// byte-identical to one with sampling left unconfigured — selective
		// tracing fully open is exactly the unsampled pipeline.
		unsampled, failU := runProtected(func() (Outcome, string, error) {
			out, err := runReferencePolicy(c, basePolicy())
			return out, "", err
		})
		if failU != nil {
			failU.Backend = "reference(unsampled)"
			return failU
		}
		if d := ref.Diff(unsampled); d != "" {
			return &Failure{Kind: "divergence", Backend: "reference(fraction=1.0)", Detail: d}
		}
	}
	for _, name := range backends {
		out, fail := runProtected(func() (Outcome, string, error) {
			return RunBackend(name, c)
		})
		if fail != nil {
			fail.Backend = name
			return fail
		}
		if d := out.Diff(ref); d != "" {
			return &Failure{Kind: "divergence", Backend: name, Detail: d}
		}
	}
	return nil
}

// runProtected invokes one run, converting a panic into a "panic" failure,
// an infrastructure error into an "error" failure, and an oracle complaint
// into an "oracle" failure.
func runProtected(run func() (Outcome, string, error)) (out Outcome, fail *Failure) {
	defer func() {
		if r := recover(); r != nil {
			fail = &Failure{Kind: "panic", Detail: fmt.Sprintf("%v", r)}
		}
	}()
	out, oracleFail, err := run()
	if err != nil {
		return out, &Failure{Kind: "error", Detail: err.Error()}
	}
	if oracleFail != "" {
		return out, &Failure{Kind: "oracle", Detail: oracleFail}
	}
	return out, nil
}

// Backends returns the registered backend names the checker runs by
// default.
func Backends() []string { return engine.Names() }
