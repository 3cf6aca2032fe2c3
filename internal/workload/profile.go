// Package workload generates the deterministic instruction/memory-access
// streams that stand in for the paper's benchmark suite: the 20 SPEC CPU
// 2006 programs run under file-input tainting and the network applications
// (curl, wget, mySQL, apache under four trust policies) run under
// socket-input tainting.
//
// Real SPEC binaries and Pin are unavailable to a pure-Go reproduction, so
// each benchmark is described by a Profile whose *input characteristics* are
// calibrated to the paper's own characterization study (Tables 1–4, Figures
// 5–6): the fraction of instructions touching tainted data, the taint-free
// epoch length distribution, the page-level taint footprint, the sub-page
// taint layout, and the baseline data locality. The downstream results —
// H-LATCH cache behaviour (Tables 6–7, Figure 16) and S-/P-LATCH overheads
// (Figures 13–15) — are *computed* by running the generated streams through
// this repository's independent LATCH implementation, not copied from the
// paper.
//
// A Generator draws its stream from a concrete copy of math/rand's stream:
// seeded by math/rand itself, then continued by the same lagged-Fibonacci
// recurrence, so every profile's stream is what rand.New(rand.NewSource(
// Seed)) would produce. RunBatches writes events in place into a caller's
// buffer and hands it over in batches that close on a fixed grid and before
// every shadow mutation; Run delivers the same stream one event at a time.
package workload

import (
	"fmt"
	"sort"
)

// Suite groups benchmarks the way the paper's tables do.
type Suite int

// Suites.
const (
	SuiteSPEC Suite = iota
	SuiteNetwork
)

// String names the suite.
func (s Suite) String() string {
	switch s {
	case SuiteSPEC:
		return "spec2006"
	case SuiteNetwork:
		return "network"
	}
	return fmt.Sprintf("suite(%d)", int(s))
}

// EpochClass describes one class of taint-free epochs: maximal clean runs of
// Len instructions that together account for Share of the benchmark's
// *clean* instructions.
type EpochClass struct {
	Len   uint64
	Share float64
}

// Profile is the calibrated description of one benchmark. See the package
// comment for the provenance of each field.
type Profile struct {
	Name  string
	Suite Suite

	// TaintPct is the percentage of instructions touching tainted data
	// (Tables 1–2). The generator derives its active-phase taint density
	// from it, so the generated stream reproduces it by construction.
	TaintPct float64

	// ActiveShare is the fraction of instructions inside taint-handling
	// bursts. Must satisfy ActiveShare >= TaintPct/100; the burst-internal
	// taint density is TaintPct/100/ActiveShare.
	ActiveShare float64

	// Epochs lists the clean-epoch classes (shares over clean instructions
	// summing to 1); it shapes Figure 5.
	Epochs []EpochClass

	// PagesAccessed and PagesTainted give the memory footprint of Tables
	// 3–4. PagesAccessed is at most 983,040: the footprint starts at page
	// 0x10000 and must end below the top of the 32-bit address space.
	PagesAccessed int
	PagesTainted  int

	// RunLen and GapLen describe the sub-page taint layout inside tainted
	// pages: alternating runs of RunLen tainted bytes and GapLen clean
	// bytes. RunLen >= 4096 means fully tainted pages (bzip2's page-aligned
	// pattern, §3.3.2). This shapes the Figure 6 false-positive curve.
	RunLen, GapLen int

	// MemFraction is the fraction of instructions with a memory operand.
	MemFraction float64

	// HotFraction is the fraction of clean memory accesses that hit a tiny
	// hot set (stack slots); it calibrates the unfiltered taint cache's
	// baseline miss rate (Table 6 row 4): baseline miss% ~ (1-HotFraction).
	HotFraction float64

	// CleanNearTaint is the fraction of clean-phase memory accesses that
	// wander into tainted pages (clean bytes adjacent to taint), producing
	// coarse false positives outside active phases. High for astar/sphinx.
	CleanNearTaint float64

	// BurstNearTaint is the fraction of clean accesses *inside* active
	// bursts that fall on clean bytes within tainted regions.
	BurstNearTaint float64

	// NearTaintRandom is the fraction of near-taint accesses that land at
	// random positions across all tainted pages (defeating both the CTC and
	// the t-cache) rather than walking sequentially near the taint cursor.
	// astar's pointer-chasing over a mostly-tainted heap is the extreme.
	NearTaintRandom float64

	// TaintReuse is how many times each tainted word is accessed before the
	// taint cursor advances; it models the re-read locality of taint-
	// handling loops and calibrates the precise taint cache's hit rate on
	// true positives.
	TaintReuse int

	// ChurnProb is the probability that, once the taint cursor finishes
	// with a position, the workload overwrites that byte with clean data
	// and re-taints it later in the phase (buffers being reused). Churn is
	// what exercises the S-LATCH clear-bit machinery of §5.1.4: each clean
	// overwrite asserts a CTC clear bit that the return-to-hardware scan
	// must examine. Zero for read-only-input workloads (bzip2's compression
	// source, for instance).
	ChurnProb float64

	// JumpProb is the probability a clean-cursor access jumps to a random
	// page, spreading the footprint (TLB pressure).
	JumpProb float64

	// LibdftSlowdown is the whole-run slowdown of continuous software DIFT
	// for this benchmark (the paper's Figure 13 baseline). The paper does
	// not itemize these; values are set in the 2x-10x range libdft reports
	// ([32]), heavier for memory- and branch-intensive programs.
	LibdftSlowdown float64

	// CodeCacheLat is the cycle cost of loading the current Pin trace from
	// the code cache on a hardware-to-software switch (§6.1).
	CodeCacheLat uint64

	// Seed makes the stream deterministic per benchmark.
	Seed int64
}

// Validate checks internal consistency.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile with empty name")
	}
	if p.TaintPct < 0 || p.TaintPct > 100 {
		return fmt.Errorf("workload %s: TaintPct %v out of range", p.Name, p.TaintPct)
	}
	if p.ActiveShare <= 0 || p.ActiveShare >= 1 {
		return fmt.Errorf("workload %s: ActiveShare %v out of (0,1)", p.Name, p.ActiveShare)
	}
	if p.TaintPct/100 > p.ActiveShare*0.96 {
		return fmt.Errorf("workload %s: ActiveShare %v too small for TaintPct %v",
			p.Name, p.ActiveShare, p.TaintPct)
	}
	if len(p.Epochs) == 0 {
		return fmt.Errorf("workload %s: no epoch classes", p.Name)
	}
	var sum float64
	for _, c := range p.Epochs {
		if c.Len == 0 || c.Share < 0 {
			return fmt.Errorf("workload %s: bad epoch class %+v", p.Name, c)
		}
		sum += c.Share
	}
	if sum < 0.99 || sum > 1.01 {
		return fmt.Errorf("workload %s: epoch shares sum to %v, want 1", p.Name, sum)
	}
	if p.PagesAccessed <= 0 || p.PagesTainted < 0 || p.PagesTainted > p.PagesAccessed {
		return fmt.Errorf("workload %s: bad page footprint %d/%d", p.Name, p.PagesTainted, p.PagesAccessed)
	}
	if p.PagesAccessed > maxPagesAccessed {
		return fmt.Errorf("workload %s: PagesAccessed %d exceeds %d: the footprint would pass the top of the 32-bit address space",
			p.Name, p.PagesAccessed, maxPagesAccessed)
	}
	if p.RunLen <= 0 || p.GapLen < 0 {
		return fmt.Errorf("workload %s: bad run/gap %d/%d", p.Name, p.RunLen, p.GapLen)
	}
	if p.MemFraction <= 0 || p.MemFraction > 1 {
		return fmt.Errorf("workload %s: MemFraction %v out of (0,1]", p.Name, p.MemFraction)
	}
	for _, v := range []float64{p.HotFraction, p.CleanNearTaint, p.BurstNearTaint, p.JumpProb, p.NearTaintRandom, p.ChurnProb} {
		if v < 0 || v > 1 {
			return fmt.Errorf("workload %s: fraction %v out of [0,1]", p.Name, v)
		}
	}
	if p.TaintReuse < 1 {
		return fmt.Errorf("workload %s: TaintReuse %d < 1", p.Name, p.TaintReuse)
	}
	if p.LibdftSlowdown < 1 {
		return fmt.Errorf("workload %s: LibdftSlowdown %v < 1", p.Name, p.LibdftSlowdown)
	}
	return nil
}

// registry holds all profiles by name.
var registry = map[string]Profile{}

// register validates and stores a profile; duplicate names are programmer
// errors.
func register(p Profile) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if _, dup := registry[p.Name]; dup {
		panic("workload: duplicate profile " + p.Name)
	}
	registry[p.Name] = p
}

// Register adds a user-defined profile to the registry so the experiment
// harness and CLIs can run it like a built-in benchmark. It rejects invalid
// profiles and name collisions.
func Register(p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if _, dup := registry[p.Name]; dup {
		return fmt.Errorf("workload: profile %q already registered", p.Name)
	}
	registry[p.Name] = p
	return nil
}

// Get returns the profile named name.
func Get(name string) (Profile, error) {
	p, ok := registry[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return p, nil
}

// MustGet is Get panicking on unknown names.
func MustGet(name string) Profile {
	p, err := Get(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns all benchmark names, sorted, SPEC before network.
func Names() []string {
	var spec, net []string
	for name, p := range registry {
		if p.Suite == SuiteSPEC {
			spec = append(spec, name)
		} else {
			net = append(net, name)
		}
	}
	sort.Strings(spec)
	sort.Strings(net)
	return append(spec, net...)
}

// BySuite returns the sorted benchmark names of one suite.
func BySuite(s Suite) []string {
	var out []string
	for name, p := range registry {
		if p.Suite == s {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
