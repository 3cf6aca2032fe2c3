package latch

import (
	"latch/internal/dift"
	"latch/internal/engine"
	"latch/internal/telemetry"
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
	cfg Config
	pol Policy
	obs Observer
}

// Option configures a System built by New.
type Option func(*sysOptions)

// WithConfig replaces the hardware configuration (default: DefaultConfig),
// clear policy included.
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
	s, _, err := engine.NewStack(o.cfg, o.pol, o.obs)
	return s, err
}
