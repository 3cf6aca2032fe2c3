package engine

// Costs is the engine-level table of the cycle-cost constants the
// integrations share. The paper's §6.1 numbers live in exactly one place:
// here, except the CTC miss penalty, whose single definition is
// latch.DefaultCTCMissPenalty: it parameterizes the module itself, and the
// Session charges the value in the module's own latch.Config, so geometry
// ablations stay consistent with the module they sweep.
type Costs struct {
	// CtxSwitch is the cost of saving/restoring the native context on each
	// direction of a mode switch (getcontext/setcontext, §6.1).
	CtxSwitch uint64
	// FPCheck is the exception-handler cost of validating one coarse
	// positive against the precise state (ltnt + tagmap lookup, §5.1.2).
	FPCheck uint64
	// ScanPerDomain is the cost of checking one clear-bit-flagged domain
	// during the return-to-hardware scan (§5.1.4).
	ScanPerDomain uint64
	// CodeCacheLat is the code-cache load latency charged on each
	// hardware->software transfer when the workload profile does not carry
	// a calibrated per-benchmark value.
	CodeCacheLat uint64
	// TimeoutInstrs is the software-mode timeout: after this many
	// instructions without touching taint, control returns to hardware
	// (1000 in the paper, §5.1.3).
	TimeoutInstrs uint64
}

// DefaultCosts returns the paper's constants.
func DefaultCosts() Costs {
	return Costs{
		CtxSwitch:     400,
		FPCheck:       120,
		ScanPerDomain: 20,
		CodeCacheLat:  800,
		TimeoutInstrs: 1000,
	}
}
