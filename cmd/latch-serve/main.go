// Command latch-serve runs the LATCH engine as a long-lived, multi-tenant
// taint-checking service (see internal/serve): workload-replay jobs and
// LA32 program jobs arrive as JSON over HTTP and stream violations,
// telemetry, and results back as NDJSON.
//
// Usage:
//
//	latch-serve -addr :8341
//	latch-serve -workers 4 -queue 32 -deadline 10s -canary 8
//	latch-serve -quota-rate 5 -quota-burst 10          # per-tenant
//	latch-serve -backends slatch,hlatch                # restrict schemes
//	latch-serve -allow-policy -pin-checks control-flow -min-sample 0.25
//
// Endpoints:
//
//	POST /v1/run       workload replay through a registered backend
//	POST /v1/program   LA32 program under DIFT with the LATCH layer
//	GET  /v1/backends  discovery: backends, workloads, built-in programs
//	GET  /healthz      liveness (503 while draining)
//	GET  /debug/stats  serving counters
//	GET  /debug/canary in-service differential-check report
//	GET  /debug/vars   expvar (includes the latch_serve stats map)
//	GET  /debug/pprof  profiling
//
// Per-request taint policies are an operator opt-in: -allow-policy admits a
// "policy" field in job bodies, -pin-checks names checks a tenant policy may
// not disable, and -min-sample floors the selective-tracing fraction; out-of-
// bounds policies answer 403.
//
// Load shedding: a full job queue or an exhausted tenant quota answers 429
// with Retry-After; SIGINT/SIGTERM drains in-flight jobs before exit.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"latch"
	"latch/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr        = flag.String("addr", ":8341", "listen address")
		workers     = flag.Int("workers", 0, "worker count (0 = one per CPU)")
		queue       = flag.Int("queue", 16, "job queue depth; a full queue sheds with 429")
		deadline    = flag.Duration("deadline", 30*time.Second, "default per-job deadline")
		maxDeadline = flag.Duration("max-deadline", 2*time.Minute, "ceiling on requested deadlines")
		quotaRate   = flag.Float64("quota-rate", 0, "per-tenant sustained jobs/sec (0 = no quotas)")
		quotaBurst  = flag.Int("quota-burst", 1, "per-tenant burst depth")
		canaryN     = flag.Int("canary", 0, "shadow-run every Nth program job against the reference stack (0 = off)")
		backends    = flag.String("backends", "", "comma-separated backend allowlist (empty = all registered)")
		allowPolicy = flag.Bool("allow-policy", false, "admit per-request taint policies in job bodies")
		pinChecks   = flag.String("pin-checks", "", "comma-separated checks tenant policies must keep on (control-flow, leak)")
		minSample   = flag.Float64("min-sample", 0, "floor on tenant sampling fractions (0 = no floor)")
		domainSize  = flag.Uint("domain-size", 0, "taint-domain size override in bytes (power of two; 0 = paper default)")
		ctcEntries  = flag.Int("ctc-entries", 0, "CTC entry-count override (power of two; 0 = paper default)")
		tlbEntries  = flag.Int("tlb-entries", 0, "TLB entry-count override (power of two; 0 = paper default)")
		drainWait   = flag.Duration("drain-wait", 30*time.Second, "bound on connection drain at shutdown")
	)
	flag.Parse()

	f := flagSet{
		Workers: *workers, Queue: *queue,
		Deadline: *deadline, MaxDeadline: *maxDeadline,
		QuotaRate: *quotaRate, QuotaBurst: *quotaBurst,
		Canary:      *canaryN,
		Backends:    *backends,
		AllowPolicy: *allowPolicy, PinChecks: *pinChecks, MinSample: *minSample,
		DomainSize: *domainSize, CTCEntries: *ctcEntries, TLBEntries: *tlbEntries,
	}
	if err := validateFlags(f); err != nil {
		return fail(err)
	}

	srv := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		Quota:           serve.QuotaConfig{Rate: *quotaRate, Burst: *quotaBurst},
		CanaryEveryN:    *canaryN,
		Geometry:        f.geometry(),
		Backends:        splitList(*backends),
		Policy: serve.PolicyGate{
			AllowTenantPolicies: *allowPolicy,
			PinnedChecks:        splitList(*pinChecks),
			MinSampleFraction:   *minSample,
		},
	})
	expvar.Publish("latch_serve", expvar.Func(func() any { return srv.Stats() }))

	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "latch-serve listening on %s (%d workers, queue %d)\n",
		*addr, srv.Stats().Workers, *queue)

	select {
	case err := <-errCh:
		return fail(err)
	case <-ctx.Done():
	}

	// Drain: stop accepting connections, let in-flight responses finish,
	// then join the worker pool.
	fmt.Fprintln(os.Stderr, "latch-serve draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
	}
	srv.Close()
	return 0
}

// flagSet mirrors cmd/latch-run's flag-conflict validator: every
// inconsistent combination is rejected up front with one consistent error
// path instead of failing mid-serve.
type flagSet struct {
	Workers, Queue        int
	Deadline, MaxDeadline time.Duration
	QuotaRate             float64
	QuotaBurst            int
	Canary                int
	Backends              string
	AllowPolicy           bool
	PinChecks             string
	MinSample             float64
	DomainSize            uint
	CTCEntries            int
	TLBEntries            int
}

func validateFlags(f flagSet) error {
	if f.Workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", f.Workers)
	}
	if f.Queue < 1 {
		return fmt.Errorf("-queue must be positive, got %d", f.Queue)
	}
	if f.Deadline <= 0 {
		return fmt.Errorf("-deadline must be positive, got %v", f.Deadline)
	}
	if f.MaxDeadline <= 0 {
		return fmt.Errorf("-max-deadline must be positive, got %v", f.MaxDeadline)
	}
	if f.Deadline > f.MaxDeadline {
		return fmt.Errorf("-deadline %v exceeds -max-deadline %v", f.Deadline, f.MaxDeadline)
	}
	if f.QuotaRate < 0 {
		return fmt.Errorf("-quota-rate must be non-negative, got %v", f.QuotaRate)
	}
	if f.QuotaBurst < 1 {
		return fmt.Errorf("-quota-burst must be positive, got %d", f.QuotaBurst)
	}
	if f.Canary < 0 {
		return fmt.Errorf("-canary must be non-negative, got %d", f.Canary)
	}
	if f.DomainSize > 0 && !powerOfTwo(uint64(f.DomainSize)) {
		return fmt.Errorf("-domain-size must be a power of two, got %d", f.DomainSize)
	}
	if f.CTCEntries < 0 || (f.CTCEntries > 0 && !powerOfTwo(uint64(f.CTCEntries))) {
		return fmt.Errorf("-ctc-entries must be a power of two, got %d", f.CTCEntries)
	}
	if f.TLBEntries < 0 || (f.TLBEntries > 0 && !powerOfTwo(uint64(f.TLBEntries))) {
		return fmt.Errorf("-tlb-entries must be a power of two, got %d", f.TLBEntries)
	}
	// A power of two can still lie outside the shadow's domain-size range;
	// every job would then fail at session setup.
	if err := f.geometry().Validate(); err != nil {
		return fmt.Errorf("-domain-size/-ctc-entries/-tlb-entries: %w", err)
	}
	for _, c := range splitList(f.PinChecks) {
		if c != "control-flow" && c != "leak" {
			return fmt.Errorf("-pin-checks: unknown check %q (known: control-flow, leak)", c)
		}
	}
	if f.MinSample < 0 || f.MinSample > 1 {
		return fmt.Errorf("-min-sample must be in [0, 1], got %v", f.MinSample)
	}
	if !f.AllowPolicy && (f.PinChecks != "" || f.MinSample != 0) {
		return fmt.Errorf("-pin-checks/-min-sample only apply with -allow-policy")
	}
	known := latch.Backends()
	for _, b := range splitList(f.Backends) {
		found := false
		for _, k := range known {
			if b == k {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("-backends: unknown backend %q (registered: %v)", b, known)
		}
	}
	return nil
}

// geometry returns the module geometry the flags select: the paper default
// with each nonzero override applied.
func (f flagSet) geometry() latch.Config {
	geom := latch.DefaultConfig()
	if f.DomainSize > 0 {
		geom.DomainSize = uint32(f.DomainSize)
	}
	if f.CTCEntries > 0 {
		geom.CTCEntries = f.CTCEntries
	}
	if f.TLBEntries > 0 {
		geom.TLBEntries = f.TLBEntries
	}
	return geom
}

func powerOfTwo(n uint64) bool { return n > 0 && n&(n-1) == 0 }

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 2
}
