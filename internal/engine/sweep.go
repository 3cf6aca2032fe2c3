package engine

import (
	"context"
	"errors"
	"fmt"

	"latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/trace"
	"latch/internal/workload"
)

// ErrConsumerWrite reports a sweep consumer that changed the taint status
// of a byte in the shadow the sweep shares: the other consumers and the
// generator would see its effect, so the sweep's results are void.
var ErrConsumerWrite = errors.New("engine: a sweep consumer changed the shared shadow")

// RunSweep streams one profile through several backends at once, the way
// H-LATCH's filtered stack and its unfiltered baseline share one pass. It
// builds one generator and one shadow, and one module, Session and per-run
// state per backend (a consumer): the first consumer runs on an idle
// session, the others on spare modules attached to that session's shadow
// for the run. The layout the generator writes is loaded into every
// consumer's module in bulk; during the stream, the shadow's watchers fan
// each transition out to every consumer's module in consumer order, and
// every consumer steps each batch before the generator's next shadow
// mutation. Each consumer therefore sees exactly what RunProfile would show
// it alone, so result i equals RunProfile(ctx, backends[i], p, opts).
//
// Every backend must use one domain size, which the shared shadow has. Only
// the generator may write the shadow: a consumer whose Init, batch or
// Finish changes a byte's taint status fails the sweep with
// ErrConsumerWrite. A one-consumer sweep is RunProfile. Cancellation
// behaves as in RunProfile: every initialized backend is finalized and
// ctx.Err() is returned.
func RunSweep(ctx context.Context, p workload.Profile, backends []Backend, opts RunOptions) ([]Result, error) {
	switch len(backends) {
	case 0:
		return nil, fmt.Errorf("engine: sweep of %s has no backends", p.Name)
	case 1:
		res, err := RunProfile(ctx, backends[0], p, opts)
		if err != nil {
			return nil, err
		}
		return []Result{res}, nil
	}
	if err := opts.Policy.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	ds := backends[0].Config().DomainSize
	for _, b := range backends[1:] {
		if d := b.Config().DomainSize; d != ds {
			return nil, fmt.Errorf("engine: sweep of %s mixes %d- and %d-byte domains (%s, %s); its consumers share one shadow",
				p.Name, ds, d, backends[0].Name(), b.Name())
		}
	}
	sw, err := newSweep(backends)
	if err != nil {
		return nil, err
	}
	defer sw.release()
	return sw.run(ctx, p, opts)
}

// sweep is one RunSweep call's consumers and the fan-out of the shadow they
// share.
type sweep struct {
	cs       []consumer
	spares   []*latch.Module // the modules of cs[1:]
	onDomain []shadow.Watcher
	onByte   []shadow.ByteWatcher // the LazyClear consumers' byte watchers

	active int // the consumer whose code runs now; -1 while the generator runs
	writer int // the first consumer that changed the shadow; -1 if none
}

// newSweep takes an idle session for the first backend and a spare module
// for each other one, and collects the watchers of the fan-out the run
// registers on the session's shadow once the layout is loaded.
func newSweep(backends []Backend) (*sweep, error) {
	lead, err := takeSession(backends[0].Config())
	if err != nil {
		return nil, err
	}
	sw := &sweep{cs: []consumer{newConsumer(lead, backends[0])}, active: -1, writer: -1}
	for _, b := range backends[1:] {
		cfg := b.Config()
		m, err := takeModule(cfg, lead.Shadow)
		if err != nil {
			sw.release()
			return nil, err
		}
		sw.cs = append(sw.cs, newConsumer(&Session{Module: m, Shadow: lead.Shadow, missPenalty: cfg.CTCMissPenalty}, b))
		sw.spares = append(sw.spares, m)
	}
	for _, c := range sw.cs {
		onDomain, onByte := c.s.Module.Watchers()
		sw.onDomain = append(sw.onDomain, onDomain)
		if onByte != nil {
			sw.onByte = append(sw.onByte, onByte)
		}
	}
	return sw, nil
}

func (sw *sweep) domainTransition(d uint32, tainted bool) {
	sw.noteWrite()
	for _, w := range sw.onDomain {
		w(d, tainted)
	}
}

func (sw *sweep) byteTransition(addr uint32, tainted bool) {
	sw.noteWrite()
	for _, w := range sw.onByte {
		w(addr, tainted)
	}
}

// noteWrite records a shadow change made while a consumer's code runs.
func (sw *sweep) noteWrite() {
	if sw.active >= 0 && sw.writer < 0 {
		sw.writer = sw.active
	}
}

// err reports the first consumer write, if any.
func (sw *sweep) err() error {
	if sw.writer < 0 {
		return nil
	}
	return fmt.Errorf("%w: consumer %d (%s)", ErrConsumerWrite, sw.writer, sw.cs[sw.writer].b.Name())
}

// run is RunProfile's driver over every consumer.
func (sw *sweep) run(ctx context.Context, p workload.Profile, opts RunOptions) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lead := sw.cs[0].s
	g, err := lead.materialize(p, opts.Policy.Sampling, sw.spares...)
	if err != nil {
		return nil, err
	}
	// The fan-out follows the stream. Its byte watcher is registered even
	// when no consumer clears lazily: every change of a byte's taint status
	// reaches it, so it is where a consumer's write is caught.
	lead.Shadow.OnDomainTransition(sw.domainTransition)
	lead.Shadow.OnByteTransition(sw.byteTransition)
	for _, c := range sw.cs {
		c.s.begin(p, opts)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, c := range sw.cs {
		sw.active = i
		err := c.b.Init(c.s)
		sw.active = -1
		// The consumers initialized so far may run goroutines (cplatch's
		// monitor); finalizing joins them.
		if err != nil {
			sw.finish(i)
			return nil, err
		}
		if err := sw.err(); err != nil {
			sw.finish(i + 1)
			return nil, err
		}
	}
	done := ctx.Done()
	g.RunBatches(opts.Events, lead.batchBuf(), func(evs []trace.Event) {
		for i, c := range sw.cs {
			sw.active = i
			c.step(evs)
		}
		sw.active = -1
		if sw.writer >= 0 || canceled(done, lead.Events) {
			g.Stop()
		}
	})
	res := sw.finish(len(sw.cs))
	if err := sw.err(); err != nil {
		return nil, err
	}
	if g.Stopped() {
		return nil, ctx.Err()
	}
	return res, nil
}

// finish finalizes the first n consumers, unconditionally, as RunProfile
// does: cplatch's Finish joins its monitor goroutine.
func (sw *sweep) finish(n int) []Result {
	res := make([]Result, n)
	for i, c := range sw.cs[:n] {
		sw.active = i
		res[i] = c.b.Finish(c.s)
	}
	sw.active = -1
	return res
}

// release returns the spare modules, then gives the shadow back its lead
// module's own watchers and puts the lead session on the idle list.
func (sw *sweep) release() {
	lead := sw.cs[0].s
	for _, m := range sw.spares {
		releaseModule(m)
	}
	lead.watch()
	releaseSession(lead)
}

// Recording is one profile's unsampled event stream, generated once and
// replayed into many runs that differ only in their sampling, such as the
// points of the sampling frontier. It holds the stream in memory, 24 bytes
// per event.
type Recording struct {
	p   workload.Profile
	evs []trace.Event
}

// Record generates n events of p's unsampled stream. It refuses a profile
// whose stream reads the shadow after materialization
// (workload.Profile.ReadsShadow): only a stream that never does is the
// same over every sampled layout.
func Record(p workload.Profile, n uint64) (*Recording, error) {
	if p.ReadsShadow() {
		return nil, fmt.Errorf("engine: cannot record %s: its stream reads the shadow (near-taint accesses or churn)", p.Name)
	}
	r := &Recording{p: p, evs: make([]trace.Event, 0, min(n, 1<<20))}
	err := Generate(p, policy.Sampling{}, func(g *workload.Generator, buf []trace.Event) error {
		g.RunBatches(n, buf, func(evs []trace.Event) {
			r.evs = append(r.evs, evs...)
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Run replays the recording's first opts.Events events through b, with the
// result RunProfile(ctx, b, p, opts) returns. It takes an idle session and
// materializes p's layout into its shadow under opts.Policy's sampling,
// without drawing the generator's stream, then delivers the recorded
// batches, which close on the EventBatchSize grid as the generator's do. An
// event the recording marks tainted is delivered tainted only where the
// session's shadow holds taint: a sampled-out run stays in the stream but
// reads clean, as the sampled generator emits it. Cancellation behaves as
// in RunProfile.
func (r *Recording) Run(ctx context.Context, b Backend, opts RunOptions) (Result, error) {
	if opts.Events > uint64(len(r.evs)) {
		return nil, fmt.Errorf("engine: replay of %d events from a recording of %d", opts.Events, len(r.evs))
	}
	if err := opts.Policy.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	s, err := takeSession(b.Config())
	if err != nil {
		return nil, err
	}
	defer releaseSession(s)
	if _, err := s.materialize(r.p, opts.Policy.Sampling); err != nil {
		return nil, err
	}
	return s.drive(ctx, b, r.p, opts, func(deliver func([]trace.Event) bool) {
		buf := s.batchBuf()
		for evs := r.evs[:opts.Events]; len(evs) > 0; {
			batch := buf[:copy(buf, evs)]
			evs = evs[len(batch):]
			for i := range batch {
				if batch[i].Tainted && !s.Shadow.RangeTainted(batch[i].Addr, int(batch[i].Size)) {
					batch[i].Tainted = false
				}
			}
			if !deliver(batch) {
				return
			}
		}
	})
}
