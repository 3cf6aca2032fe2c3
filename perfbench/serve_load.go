package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"latch"
	"latch/internal/engine"
	"latch/internal/serve"
)

// closedLoop runs serveClients clients back to back for d, adds what they
// sent to res and returns how many requests completed.
func (e *serveEnv) closedLoop(res *serveResult, d time.Duration) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	per := make([][]sent, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; time.Since(start) < d; i += serveClients {
				s := sent{job: i % len(e.jobs)}
				s.rep, s.err = e.post(e.jobs[s.job].body)
				per[c] = append(per[c], s)
			}
		}()
	}
	wg.Wait()
	res.closedWall += time.Since(start)
	runtime.ReadMemStats(&after)
	completed := 0
	for _, p := range per {
		for _, s := range p {
			if s.err == nil {
				completed++
			}
		}
		res.closed = append(res.closed, p...)
	}
	res.allocBytes += after.TotalAlloc - before.TotalAlloc
	res.gcs += after.NumGC - before.NumGC
	return completed
}

// load runs both phases: n open-loop requests, then d of closed loop.
func (e *serveEnv) load(n int, d time.Duration) serveResult {
	res := e.openLoop(n)
	e.closedLoop(&res, d)
	return res
}

// openLatencies returns, in ms, each completed open-loop request's latency
// from its due time to its result line, its wait from sending to the start
// line (queue and admission), and its run from the start line to the
// result line.
func (res serveResult) openLatencies() (total, wait, run []float64) {
	for i, s := range res.open {
		if s.err != nil {
			continue
		}
		total = append(total, ms(s.rep.end.Sub(res.due[i])))
		wait = append(wait, ms(s.rep.start.Sub(s.rep.sent)))
		run = append(run, ms(s.rep.end.Sub(s.rep.start)))
	}
	return total, wait, run
}

// closedRate returns the closed loop's completed requests and their rate
// per second.
func (res serveResult) closedRate() (perSec float64, completed int) {
	for _, s := range res.closed {
		if s.err == nil {
			completed++
		}
	}
	return float64(completed) / res.closedWall.Seconds(), completed
}

// addSpans records each completed open-loop request as a span from its due
// time to its result line, holding its wait and its run.
func (res serveResult) addSpans(tr *tracer) {
	for i, s := range res.open {
		if s.err != nil {
			continue
		}
		op := int64(i)
		root := tr.add("serve.request", res.due[i], s.rep.end, -1, op)
		tr.add("serve.wait", s.rep.sent, s.rep.start, root, op)
		tr.add("serve.run", s.rep.start, s.rep.end, root, op)
	}
}

// check counts every request of a load and fails those that erred or whose
// result line differs from a direct latch.New + System.Run of the same
// body, computed after the load.
func (e *serveEnv) check(r *report, res serveResult) error {
	want := make([]*outcome, len(e.jobs))
	for _, phase := range [][]sent{res.open, res.closed} {
		for _, s := range phase {
			r.attempted++
			if s.err != nil {
				r.fail("job %d: %v", s.job, s.err)
				continue
			}
			if want[s.job] == nil {
				o, err := directOutcome(e.jobs[s.job])
				if err != nil {
					return fmt.Errorf("direct run of job %d: %w", s.job, err)
				}
				want[s.job] = &o
			}
			if s.rep.out != *want[s.job] {
				r.fail("job %d: result %+v, direct run %+v", s.job, s.rep.out, *want[s.job])
			}
		}
	}
	return nil
}

// checkCanary fails every divergence /debug/canary reports and returns the
// report.
func (e *serveEnv) checkCanary(r *report) (serve.CanaryReport, error) {
	var rep serve.CanaryReport
	resp, err := e.hc.Get(e.ts.URL + "/debug/canary")
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, fmt.Errorf("/debug/canary: %w", err)
	}
	if n := len(rep.Divergences); n > 0 {
		r.failOps(int64(n), "canary: %d divergences, first %+v", n, rep.Divergences[0])
	}
	return rep, nil
}

// directOutcome runs a job's program on a System of its own, as the handler
// does, with the output passed through JSON as the result line carries it.
func directOutcome(j serveJob) (outcome, error) {
	sys, err := newSystem(latch.DefaultPolicy(), j.file, j.requests)
	if err != nil {
		return outcome{}, err
	}
	o, err := runSystem(sys, j.src, serve.DefaultMaxSteps)
	if err != nil {
		return o, err
	}
	b, err := json.Marshal(o.output)
	if err != nil {
		return o, err
	}
	return o, json.Unmarshal(b, &o.output)
}

func measureServe(seed int64, d time.Duration) (*report, error) {
	r := newReport()
	env, setup, err := timedSetup(func() (*serveEnv, error) {
		jobs, err := serveLoad(seed)
		if err != nil {
			return nil, err
		}
		return startServer(jobs)
	}, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	r.set("setup_s", "s", setup)
	// The open loop gives the latencies, from serveMinOpen requests; the
	// closed loop, for the rest of the run and cut into windows, the cost
	// per request with both CPUs kept busy. The reference is sampled while
	// the window runs, so that it sees the host as the loaded server does.
	res := env.openLoop(serveMinOpen)
	closed := max(d-time.Duration(serveMinOpen/serveRate*float64(time.Second)), serveWindows*50*time.Millisecond)
	var cal calibrator
	ops := 0
	for w := 0; w < serveWindows; w++ {
		c0 := cpuTime()
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				cal.sample()
				select {
				case <-stop:
					return
				case <-time.After(serveSampleEvery):
				}
			}
		}()
		n := env.closedLoop(&res, closed/serveWindows)
		close(stop)
		<-done
		cal.round(cpuTime()-c0, n)
		ops += n
	}
	if err := env.check(r, res); err != nil {
		return nil, err
	}
	if _, err := env.checkCanary(r); err != nil {
		return nil, err
	}
	total, _, _ := res.openLatencies()
	perSec, completed := res.closedRate()
	if len(total) == 0 || completed == 0 {
		return nil, fmt.Errorf("no request completed: %v", r.problems)
	}
	r.setWork(&cal, res.allocBytes, ops)
	r.setNamed("serve_p50_ms", "ms", median(total))
	r.setNamed("serve_p99_ms", "ms", percentile(total, 99))
	r.setNamed("serve_req_per_s", "req/s", perSec)
	return r, nil
}

// serveParts are the median per-request costs of the handler's own public
// calls on the load's job bodies.
type serveParts struct {
	assembleUs, newUs, newKiB, runUs, refUs float64
}

// decomposeRequests is how many job bodies the decomposition pass runs.
const decomposeRequests = 1024

// decomposeServe runs the load's job bodies in order through the calls the
// handler makes — Assemble, latch.New, System.Run (less the assembly it
// does itself) — and, on every serveCanaryEvery-th body as the server does,
// the canary's engine.Reference replay, so the allocation pressure matches
// the server's. It times each call.
func decomposeServe(tr *tracer, jobs []serveJob) (serveParts, error) {
	var p serveParts
	var asmUs, newUs, runUs, refUs []float64
	pol := latch.DefaultPolicy()
	ctx := context.Background()
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for k := 0; k < decomposeRequests; k++ {
		job := jobs[k%len(jobs)]
		op := int64(k)
		root := tr.begin("serve.decompose", -1, op)
		i := tr.begin("isa.Assemble", root, op)
		prog, err := latch.Assemble(job.src)
		asm := tr.end(i)
		if err != nil {
			return p, err
		}
		i = tr.begin("latch.New", root, op)
		sys, err := latch.New(latch.WithObserver(latch.NewMetrics()), latch.WithConfig(latch.DefaultConfig()), latch.WithPolicy(pol))
		newUs = append(newUs, us(tr.end(i)))
		if err != nil {
			return p, err
		}
		sys.Machine.Env.FileData = job.file
		sys.Machine.Env.Requests = job.requests
		i = tr.begin("latch.System.Run", root, op)
		_, err = sys.Run(ctx, job.src, serve.DefaultMaxSteps)
		runUs = append(runUs, us(tr.end(i)-asm))
		if err != nil {
			return p, err
		}
		if (k+1)%serveCanaryEvery == 0 {
			i = tr.begin("engine.Reference", root, op)
			ref, err := engine.NewReference(pol)
			if err != nil {
				return p, err
			}
			ref.Machine.Env.FileData = job.file
			ref.Machine.Env.Requests = job.requests
			ref.Machine.Load(prog)
			_, _ = ref.Machine.Run(ctx, serve.DefaultMaxSteps) // a violation is an expected outcome here
			refUs = append(refUs, us(tr.end(i)))
		}
		tr.end(root)
		asmUs = append(asmUs, us(asm))
	}
	p.assembleUs, p.newUs, p.runUs, p.refUs = median(asmUs), median(newUs), median(runUs), median(refUs)

	// Allocation of latch.New, apart from its timing.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < len(jobs); k++ {
		if _, err := latch.New(latch.WithObserver(latch.NewMetrics()), latch.WithPolicy(pol)); err != nil {
			return p, err
		}
	}
	runtime.ReadMemStats(&after)
	p.newKiB = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(jobs)) / 1024
	return p, nil
}

// traceServe runs one untraced and one traced load of fixed size, then the
// decomposition pass.
func traceServe(seed int64) (*report, error) {
	jobs, err := serveLoad(seed)
	if err != nil {
		return nil, err
	}
	env, err := startServer(jobs)
	if err != nil {
		return nil, err
	}
	defer env.close()
	r := newReport()
	const closed = 2 * time.Second

	plain := env.load(serveMinOpen, closed)
	if err := env.check(r, plain); err != nil {
		return nil, err
	}
	total, _, plainRun := plain.openLatencies()
	perSec, _ := plain.closedRate()
	r.setNamed("serve_p50_ms", "ms", median(total))
	r.setNamed("serve_p99_ms", "ms", percentile(total, 99))
	r.setNamed("serve_req_per_s", "req/s", perSec)

	tr := newTracer()
	traced := env.load(serveMinOpen, closed)
	if err := env.check(r, traced); err != nil {
		return nil, err
	}
	traced.addSpans(tr)
	_, wait, run := traced.openLatencies()
	_, completed := traced.closedRate()
	r.set("serve.start_line_ms_p50", "ms", median(wait))
	r.set("serve.start_line_ms_p99", "ms", percentile(wait, 99))
	r.set("serve.run_ms_p50", "ms", median(run))
	r.set("serve.alloc_kib_per_req", "KiB", share(float64(traced.allocBytes)/1024, float64(completed)))
	r.set("serve.gc_per_kreq", "count", share(1000*float64(traced.gcs), float64(completed)))
	r.set("serve.generator_late_ms_p99", "ms", percentile(traced.lateMs, 99))

	parts, err := decomposeServe(tr, jobs)
	if err != nil {
		return nil, err
	}
	canary, err := env.checkCanary(r)
	if err != nil {
		return nil, err
	}
	st := env.srv.Stats()
	canaryShare := share(float64(st.Canaried), float64(st.Accepted))
	assembles := 2 + canaryShare // validation, System.Run, and the canary's share
	r.set("serve.isa.assemble_us", "us", parts.assembleUs)
	r.set("serve.assembles_per_req", "count", assembles)
	r.set("serve.latch.system_new_us", "us", parts.newUs)
	r.set("serve.latch.system_new_kib", "KiB", parts.newKiB)
	r.set("serve.latch.system_run_us", "us", parts.runUs)
	r.set("serve.engine.reference_run_us", "us", parts.refUs)
	r.set("serve.canary_share", "ratio", canaryShare)
	r.set("serve.completed", "count", float64(st.Completed))
	r.set("serve.failed", "count", float64(st.Failed))
	r.set("serve.shed_queue", "count", float64(st.ShedQueue))
	r.set("serve.canary_divergences", "count", float64(len(canary.Divergences)))
	layersUs := parts.assembleUs*assembles + parts.newUs + parts.runUs + parts.refUs*canaryShare
	msDur := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	r.setLayerSum("serve", msDur(median(plainRun)), msDur(median(run)), time.Duration(layersUs*float64(time.Microsecond)))
	return r, tr.write("serve")
}
