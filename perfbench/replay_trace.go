package main

import (
	"context"
	"fmt"
	"time"

	"latch"
	"latch/internal/engine"
	"latch/internal/trace"
	"latch/internal/workload"
)

// tracedBackend forwards to a registered backend and records a span around
// every Init, StepBatch and Finish call, nested in the run's span.
type tracedBackend struct {
	inner engine.BatchBackend
	tr    *tracer
	run   int
	op    int64
	// names holds the Init, StepBatch and Finish span names, built once so
	// the per-batch path does not allocate.
	names [3]string
}

var (
	_ engine.BatchBackend = (*tracedBackend)(nil)
	_ engine.Sharded      = (*tracedBackend)(nil)
)

func newTracedBackend(inner engine.BatchBackend, tr *tracer, profile string, op int64) *tracedBackend {
	b := &tracedBackend{inner: inner, tr: tr, run: -1, op: op}
	for i, m := range []string{"Init", "StepBatch", "Finish"} {
		b.names[i] = inner.Name() + "." + m + "." + profile
	}
	return b
}

func (b *tracedBackend) Name() string         { return b.inner.Name() }
func (b *tracedBackend) Config() latch.Config { return b.inner.Config() }

func (b *tracedBackend) Init(s *engine.Session) error {
	i := b.tr.begin(b.names[0], b.run, b.op)
	defer b.tr.end(i)
	return b.inner.Init(s)
}

func (b *tracedBackend) Step(s *engine.Session, ev trace.Event) { b.inner.Step(s, ev) }

func (b *tracedBackend) StepBatch(s *engine.Session, evs []trace.Event) {
	i := b.tr.begin(b.names[1], b.run, b.op)
	b.inner.StepBatch(s, evs)
	b.tr.end(i)
}

func (b *tracedBackend) Finish(s *engine.Session) engine.Result {
	i := b.tr.begin(b.names[2], b.run, b.op)
	defer b.tr.end(i)
	return b.inner.Finish(s)
}

func (b *tracedBackend) SetShards(n int) error {
	sb, ok := b.inner.(engine.Sharded)
	if !ok {
		return fmt.Errorf("backend %s does not support shard configuration", b.inner.Name())
	}
	return sb.SetShards(n)
}

// tracedReplayRun is latch.Run with the backend wrapped: the same profile,
// seed, shard count and engine driver, plus a metrics observer for the
// layer counts. The run's span is named latch.Run.<backend>.<profile>.
func tracedReplayRun(tr *tracer, op int64, req latch.RunRequest) (latch.BackendResult, latch.MetricsSnapshot, error) {
	var snap latch.MetricsSnapshot
	p, err := profileFor(req)
	if err != nil {
		return nil, snap, err
	}
	sch, err := engine.Lookup(req.Backend)
	if err != nil {
		return nil, snap, err
	}
	inner, ok := sch.New().(engine.BatchBackend)
	if !ok {
		return nil, snap, fmt.Errorf("backend %s does not take batches", req.Backend)
	}
	b := newTracedBackend(inner, tr, req.Workload, op)
	if req.Shards > 0 {
		if err := b.SetShards(req.Shards); err != nil {
			return nil, snap, err
		}
	}
	m := latch.NewMetrics()
	b.run = tr.begin("latch.Run."+req.Backend+"."+req.Workload, -1, op)
	res, _, err := engine.RunProfileSession(context.Background(), b, p, engine.RunOptions{Events: req.Events, Observer: m})
	tr.end(b.run)
	return res, m.Snapshot(), err
}

// traceReplay runs one untraced and one traced round. The generator's self
// time is each run's span minus its backend spans.
func traceReplay(seed int64) (*report, error) {
	reqs := replayLoad(seed)
	if err := warmReplay(reqs); err != nil {
		return nil, err
	}
	r := newReport()
	chk := newReplayChecker(seed)

	results, walls := replayRound(r, reqs, nil)
	chk.check(r, reqs, results)
	var untraced time.Duration
	wall := map[string]time.Duration{}
	events := map[string]uint64{}
	for i, res := range results {
		if res != nil {
			untraced += walls[i]
			wall[reqs[i].Backend] += walls[i]
			events[reqs[i].Backend] += res.EventCount()
		}
	}
	setBackendFigures(r, wall, events)

	tr := newTracer()
	traced := make([]latch.BackendResult, len(reqs))
	snaps := make([]latch.MetricsSnapshot, len(reqs))
	for i, req := range reqs {
		r.attempted++
		res, snap, err := tracedReplayRun(tr, int64(i), req)
		if err != nil {
			r.fail("traced %s: %v", replayKey(req), err)
			continue
		}
		traced[i], snaps[i] = res, snap
	}
	// The traced results must match the untraced ones digest for digest.
	chk.check(r, reqs, traced)

	tot := tr.totals()
	var tracedWall, layers time.Duration
	for i, req := range reqs {
		if traced[i] == nil {
			continue
		}
		b, p := req.Backend, req.Workload
		run := tot["latch.Run."+b+"."+p]
		init, step, fin := tot[b+".Init."+p], tot[b+".StepBatch."+p], tot[b+".Finish."+p]
		ev := float64(traced[i].EventCount())
		tracedWall += run.total
		layers += run.self + init.total + step.total + fin.total
		r.set("replay.workload.gen_ns_per_event."+b+"."+p, "ns", float64(run.self)/ev)
		r.set("replay."+b+".stepbatch_ns_per_event."+p, "ns", float64(step.total)/ev)
		r.set("replay."+b+".events_per_batch."+p, "count", share(ev, float64(step.count)))
		setReplayCounts(r, p, traced[i], snaps[i], fin.total)
	}
	r.setLayerSum("replay", untraced, tracedWall, layers)

	// Session construction and layout materialization, timed alone: the
	// part of each run's generator time that does not grow with the stream.
	var sessionMs []float64
	for _, req := range reqs {
		if req.Backend != replayBackends[0] {
			continue // one request per profile
		}
		p, err := profileFor(req)
		if err != nil {
			return nil, err
		}
		var matMs []float64
		for k := 0; k < 5; k++ {
			i := tr.begin("engine.NewSession", -1, -1)
			s, err := engine.NewSession(latch.DefaultConfig())
			sessionMs = append(sessionMs, ms(tr.end(i)))
			if err != nil {
				return nil, err
			}
			i = tr.begin("workload.NewSampledGeneratorOn."+p.Name, -1, -1)
			_, err = workload.NewSampledGeneratorOn(p, s.Shadow, latch.Sampling{})
			matMs = append(matMs, ms(tr.end(i)))
			if err != nil {
				return nil, err
			}
		}
		r.set("replay.workload.materialize_ms."+req.Workload, "ms", median(matMs))
	}
	r.set("replay.engine.session_new_ms", "ms", median(sessionMs))
	return r, tr.write("replay")
}
