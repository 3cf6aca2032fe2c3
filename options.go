package latch

import (
	"latch/internal/dift"
	latchcore "latch/internal/latch"
	"latch/internal/shadow"
	"latch/internal/telemetry"
	"latch/internal/vm"
)

// Observability re-exports: the telemetry package is internal layout; these
// are the public names callers use with WithObserver.
type (
	// Observer receives the runtime events of a System: coarse-check
	// resolves, cache misses and evictions, violations, and taint-source
	// bytes. All methods take scalars only, so emission never allocates;
	// a nil observer costs one branch per emission site.
	Observer = telemetry.Observer
	// Metrics is the canonical Observer: an atomic counter registry safe
	// to share across concurrently running systems.
	Metrics = telemetry.Metrics
	// MetricsSnapshot is a point-in-time, JSON-marshalable copy of a
	// Metrics registry.
	MetricsSnapshot = telemetry.Snapshot
)

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return telemetry.NewMetrics() }

// MultiObserver fans events out to every non-nil observer in obs.
func MultiObserver(obs ...Observer) Observer { return telemetry.Multi(obs...) }

// Sentinel errors for the two violation kinds, re-exported from the DIFT
// engine. A Violation wraps the sentinel matching its Kind:
//
//	var v latch.Violation
//	if errors.As(err, &v) { ... }              // full detail (PC, Addr, Tag)
//	if errors.Is(err, latch.ErrControlFlow) {} // kind only
var (
	// ErrControlFlow: an indirect control transfer used a tainted target.
	ErrControlFlow = dift.ErrControlFlow
	// ErrLeak: tainted bytes reached an external output sink.
	ErrLeak = dift.ErrLeak
)

// sysOptions collects the configuration a System is built from.
type sysOptions struct {
	cfg      Config
	pol      Policy
	obs      Observer
	clear    ClearPolicy
	setClear bool
}

// Option configures a System built by New.
type Option func(*sysOptions)

// WithConfig replaces the hardware configuration (default: DefaultConfig).
// A clear policy chosen via WithClearPolicy survives this option regardless
// of order.
func WithConfig(cfg Config) Option {
	return func(o *sysOptions) { o.cfg = cfg }
}

// WithPolicy replaces the DIFT taint policy (default: DefaultPolicy).
func WithPolicy(pol Policy) Option {
	return func(o *sysOptions) { o.pol = pol }
}

// WithObserver attaches an observer to every layer of the System: the
// module's check path, the engine's violations, and the machine's
// taint-source syscalls. Pass a *Metrics to aggregate counters, or any
// Observer implementation for custom streaming. Observers are strictly
// passive — attaching one never changes execution results.
func WithObserver(obs Observer) Option {
	return func(o *sysOptions) { o.obs = obs }
}

// WithClearPolicy overrides just the coarse-clear policy, leaving the rest
// of the configuration (given or default) untouched.
func WithClearPolicy(cp ClearPolicy) Option {
	return func(o *sysOptions) { o.clear = cp; o.setClear = true }
}

// New builds a System: one shadow taint state shared by the byte-precise
// engine and the LATCH module, attached to an LA32 machine. Without options
// it uses DefaultConfig and DefaultPolicy:
//
//	sys, err := latch.New()
//	sys, err := latch.New(latch.WithConfig(cfg), latch.WithPolicy(pol))
//	sys, err := latch.New(latch.WithObserver(latch.NewMetrics()))
func New(opts ...Option) (*System, error) {
	o := sysOptions{cfg: DefaultConfig(), pol: DefaultPolicy()}
	for _, opt := range opts {
		opt(&o)
	}
	if o.setClear {
		o.cfg.Clear = o.clear
	}
	sh, err := shadow.New(o.cfg.DomainSize)
	if err != nil {
		return nil, err
	}
	mod, err := latchcore.New(o.cfg, sh)
	if err != nil {
		return nil, err
	}
	eng := dift.NewEngine(sh, o.pol)
	m := vm.New()
	s := &System{Machine: m, Module: mod, Shadow: sh}
	s.wire(eng, o.obs)
	return s, nil
}
