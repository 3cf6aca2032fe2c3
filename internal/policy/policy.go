// Package policy is the first-class taint-policy layer: a declarative,
// JSON-serializable description of what gets tainted, what gets checked,
// and how taint propagates, shared by every tier of the stack (the
// byte-precise DIFT engine, the calibrated workload generator, the four
// LATCH backends, the experiment harness, the CLIs, and latch-serve).
//
// The package is a leaf: it imports nothing from the rest of the module,
// so the engine, the generator, and the serving layer can all depend on
// it without cycles.
//
// Two pieces make the policy "selective-tracing ready" in the HardTaint
// (arXiv:2402.17241) sense:
//
//   - Sampling: a seeded, deterministic per-source-event Bernoulli
//     sampler. Each taint-source event (a file read, a network receive,
//     a calibrated-stream taint run) is hashed with its source kind and
//     per-kind ordinal; the event is tainted iff the hash falls under
//     SampleFraction. A given SampleSeed therefore always taints the
//     same subset of inputs — across repeated runs and across backends —
//     because the decision is a pure function of (seed, kind, ordinal),
//     never of scheduling.
//
//   - TrustFraction: the declarative replacement for the old
//     `TrustConn func(conn int) bool` hook, evaluated by the same
//     sampler with KindTrust and the connection id as the ordinal, so
//     trust decisions serialize (JSON, HTTP request bodies) and stay
//     reproducible.
package policy

import "fmt"

// Propagation selects the taint-propagation rule set.
type Propagation string

const (
	// PropagationClassical is classical DTA: taint unions through ALU
	// computation and clears only on constant writes (immediates,
	// xor-self idioms).
	PropagationClassical Propagation = "classical"
	// PropagationPIFT is pointer-integrity-style flow tracking: taint
	// follows load/store/move chains but is cleared by any ALU
	// computation.
	PropagationPIFT Propagation = "pift"
)

// String renders the mode; the zero value reads as classical.
func (m Propagation) String() string {
	if m == "" {
		return string(PropagationClassical)
	}
	return string(m)
}

// Valid reports whether the mode is one of the known rule sets. The
// empty string is valid and means classical (so the zero Policy is
// usable).
func (m Propagation) Valid() bool {
	switch m {
	case "", PropagationClassical, PropagationPIFT:
		return true
	}
	return false
}

// Kind identifies the class of taint-source event being sampled. The
// first kinds deliberately mirror dift.InputSource values so the engine
// can convert directly.
type Kind int

const (
	// KindFile: file-read source events (dift.SourceFile). Ordinal =
	// per-engine file-read counter.
	KindFile Kind = 0
	// KindNet: network-receive source events (dift.SourceNet). Ordinal =
	// per-engine receive counter.
	KindNet Kind = 1
	// KindTrust: connection-trust decisions. Ordinal = connection id.
	KindTrust Kind = 2
	// KindLayout: calibrated-stream taint runs in the workload
	// generator. Ordinal = global taint-run index within the profile's
	// tainted region.
	KindLayout Kind = 3
)

// Sampling is the selective-tracing spec: a deterministic Bernoulli
// filter over taint-source events.
//
// The zero value disables sampling (every source event is tainted),
// which keeps zero-valued and pre-sampling policies byte-identical to
// the unsampled pipeline. SampleFraction == 1.0 is likewise an exact
// no-op by construction.
type Sampling struct {
	// SampleFraction is the probability, in [0, 1], that a source event
	// is tainted. 0 means "disabled" (equivalent to 1.0) so the zero
	// value changes nothing.
	SampleFraction float64 `json:"sample_fraction,omitempty"`
	// SampleSeed seeds the hash. The same seed reproduces the same
	// sampled subset everywhere.
	SampleSeed uint64 `json:"sample_seed,omitempty"`
}

// Enabled reports whether the spec actually filters anything: a
// fraction strictly between 0 and 1.
func (s Sampling) Enabled() bool {
	return s.SampleFraction != 0 && s.SampleFraction != 1
}

// Validate rejects fractions outside [0, 1] (NaN included).
func (s Sampling) Validate() error {
	if !(s.SampleFraction >= 0 && s.SampleFraction <= 1) {
		return fmt.Errorf("policy: sample_fraction %v outside [0, 1]", s.SampleFraction)
	}
	return nil
}

// Policy is the declarative taint policy. Every field is a scalar, so
// Policy is comparable and round-trips through JSON losslessly (see
// FuzzPolicyRoundTrip).
type Policy struct {
	// Propagation selects the rule set ("" = classical).
	Propagation Propagation `json:"propagation,omitempty"`
	// TaintFile / TaintNet enable the two input sources.
	TaintFile bool `json:"taint_file"`
	TaintNet  bool `json:"taint_net"`
	// TrustFraction is the fraction, in [0, 1], of network connections
	// whose input is trusted (left untainted). 0 trusts nothing — the
	// behavior of the old nil TrustConn hook. The decision per
	// connection id is made by the sampler (KindTrust), so it is
	// deterministic and seed-stable.
	TrustFraction float64 `json:"trust_fraction,omitempty"`
	// CheckControlFlow / CheckLeak enable the two violation checks.
	CheckControlFlow bool `json:"check_control_flow"`
	CheckLeak        bool `json:"check_leak"`
	// FailFast stops execution at the first violation instead of
	// recording it and continuing.
	FailFast bool `json:"fail_fast"`
	// Sampling is the selective-tracing filter over source events.
	Sampling Sampling `json:"sampling"`
}

// Default returns the standard policy: both sources tainted, no trusted
// connections, control-flow checking on, leak checking off, fail-fast,
// sampling disabled.
func Default() Policy {
	return Policy{
		TaintFile:        true,
		TaintNet:         true,
		CheckControlFlow: true,
		CheckLeak:        false,
		FailFast:         true,
	}
}

// Validate checks every constrained field.
func (p Policy) Validate() error {
	if !p.Propagation.Valid() {
		return fmt.Errorf("policy: unknown propagation mode %q", string(p.Propagation))
	}
	if !(p.TrustFraction >= 0 && p.TrustFraction <= 1) {
		return fmt.Errorf("policy: trust_fraction %v outside [0, 1]", p.TrustFraction)
	}
	return p.Sampling.Validate()
}

// Sampler builds the policy's source-event sampler.
func (p Policy) Sampler() Sampler {
	return NewSampler(p.Sampling)
}
