package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"latch"
	"latch/internal/hlatch"
	"latch/internal/platch"
	"latch/internal/slatch"
	"latch/internal/workload"
)

// The replay workload is a closed loop of latch.Run calls: the trace-driven
// path (generator → engine batch driver → backend StepBatch → latch module
// → ring) with no VM, DIFT engine or server involved. gcc has a 2% active
// window and few S-LATCH switches, mysql 32% and many, so a change to a
// backend's tainted path moves mysql and not gcc, while a generator change
// moves both. cplatch runs one shard so producer and shard fit two CPUs.
var (
	replayBackends = []string{"slatch", "platch", "cplatch", "hlatch"}
	replayProfiles = []string{"gcc", "mysql"}
)

// replayWarmEvents is the stream length of the set-up's warm-up calls.
const replayWarmEvents = 100_000

// replayLoad returns one round of requests: every backend over every
// profile at DefaultRunEvents. Each profile gets a stream seed derived from
// the workload seed and shared by the four backends, so cplatch can be
// checked against platch on the same stream; seed 0 keeps the profiles'
// calibrated seeds.
func replayLoad(seed int64) []latch.RunRequest {
	var reqs []latch.RunRequest
	for _, p := range replayProfiles {
		var s int64
		if seed != 0 {
			if s = subSeed(seed, "replay/"+p); s == 0 {
				s = 1
			}
		}
		for _, b := range replayBackends {
			req := latch.RunRequest{Backend: b, Workload: p, Events: latch.DefaultRunEvents, Seed: s}
			if b == "cplatch" {
				req.Shards = 1
			}
			reqs = append(reqs, req)
		}
	}
	return reqs
}

func replayKey(req latch.RunRequest) string { return req.Backend + "/" + req.Workload }

// warmReplay runs every request of the round once on a short stream.
func warmReplay(reqs []latch.RunRequest) error {
	for _, req := range reqs {
		req.Events = replayWarmEvents
		if _, err := latch.Run(context.Background(), req); err != nil {
			return fmt.Errorf("%s: %w", replayKey(req), err)
		}
	}
	return nil
}

// replayRound runs one round through the facade and returns each call's
// result (nil where the call failed, which is counted) and wall time.
// cal, if non-nil, samples the reference before each call.
func replayRound(r *report, reqs []latch.RunRequest, cal *calibrator) ([]latch.BackendResult, []time.Duration) {
	results := make([]latch.BackendResult, len(reqs))
	walls := make([]time.Duration, len(reqs))
	for i, req := range reqs {
		if cal != nil {
			cal.sample()
		}
		start := time.Now()
		res, err := latch.Run(context.Background(), req)
		walls[i] = time.Since(start)
		r.attempted++
		if err != nil {
			r.fail("%s: %v", replayKey(req), err)
			continue
		}
		results[i] = res
	}
	return results, walls
}

func measureReplay(seed int64, d time.Duration) (*report, error) {
	r := newReport()
	reqs, setup, err := timedSetup(func() ([]latch.RunRequest, error) {
		reqs := replayLoad(seed)
		return reqs, warmReplay(reqs)
	}, nil)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", "s", setup)
	chk := newReplayChecker(seed)
	wall := map[string]time.Duration{}
	events := map[string]uint64{}
	var cal calibrator
	ops := 0
	a0 := heapAllocated()
	for start := time.Now(); len(cal.norm) == 0 || time.Since(start) < d; {
		c0 := cpuTime()
		results, walls := replayRound(r, reqs, &cal)
		cpu := cpuTime() - c0
		chk.check(r, reqs, results)
		n := 0
		for i, res := range results {
			if res != nil {
				wall[reqs[i].Backend] += walls[i]
				events[reqs[i].Backend] += res.EventCount()
				n++
			}
		}
		if n == 0 {
			return nil, fmt.Errorf("every call of a round failed: %v", r.problems)
		}
		cal.round(cpu, n)
		ops += n
	}
	r.setWork(&cal, heapAllocated()-a0, ops)
	setBackendFigures(r, wall, events)
	return r, nil
}

// setBackendFigures reports each backend's wall time per event, both
// profiles pooled.
func setBackendFigures(r *report, wall map[string]time.Duration, events map[string]uint64) {
	for _, b := range replayBackends {
		r.setNamed(b+"_ns_per_event", "ns/event", share(float64(wall[b]), float64(events[b])))
	}
}

// resultDigest hashes the deterministic part of a backend result: the
// headline columns every backend reports, plus cplatch's merged flagged-log
// and monitor-table hashes. Ring statistics depend on scheduling and are
// left out.
func resultDigest(res latch.BackendResult) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%v", res.BenchmarkName(), res.EventCount(), res.CheckCount(), res.Columns())
	if c, ok := res.(platch.ConcurrentResult); ok {
		fmt.Fprintf(h, "|%x|%x", c.FlagDigest, c.MonitorTaintHash)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// defaultSeedDigests are the result digests at workload seed 0 (the
// profiles' calibrated seeds) recorded when the benchmark was written; a
// model change that moves them must re-record them.
var defaultSeedDigests = map[string]string{
	"slatch/gcc":    "1b825f166ebd7e28",
	"platch/gcc":    "542dae5c828cf581",
	"cplatch/gcc":   "c001b327e56857b7",
	"hlatch/gcc":    "00f019acde9ccd04",
	"slatch/mysql":  "b0fd5375476f442c",
	"platch/mysql":  "e10275d56780fde2",
	"cplatch/mysql": "6ed245861cb95337",
	"hlatch/mysql":  "55346e854b55bc38",
}

// replayChecker checks every result of a run: a request must give the same
// digest every time it runs, and at seed 0 the recorded one; and cplatch's
// producer-side columns must equal the analytic platch backend's on the
// same stream, its queue oracle.
type replayChecker struct {
	want     map[string]string
	recorded bool
}

func newReplayChecker(seed int64) *replayChecker {
	c := &replayChecker{want: map[string]string{}, recorded: seed == 0}
	if c.recorded {
		for k, v := range defaultSeedDigests {
			c.want[k] = v
		}
	}
	return c
}

// check checks one round's results, counting each failing call once.
func (c *replayChecker) check(r *report, reqs []latch.RunRequest, results []latch.BackendResult) {
	oracle := map[string]platch.Result{}
	for i, res := range results {
		if p, ok := res.(platch.Result); ok {
			oracle[reqs[i].Workload] = p
		}
	}
	for i, res := range results {
		if res == nil {
			continue
		}
		key := replayKey(reqs[i])
		d := resultDigest(res)
		want, ok := c.want[key]
		switch {
		case !ok && c.recorded:
			r.fail("%s: no recorded digest (got %s)", key, d)
			continue
		case !ok:
			c.want[key] = d
		case d != want:
			r.fail("%s: result digest %s, want %s", key, d, want)
			continue
		}
		if cp, ok := res.(platch.ConcurrentResult); ok {
			if p, ok := oracle[reqs[i].Workload]; ok {
				if err := checkQueueOracle(cp, p); err != nil {
					r.fail("%s: %v", key, err)
				}
			}
		}
	}
}

// checkQueueOracle compares a one-shard cplatch result with the analytic
// platch result of the same stream.
func checkQueueOracle(c platch.ConcurrentResult, p platch.Result) error {
	if c.ActiveWindowFraction != p.ActiveWindowFraction || c.OverheadSimple != p.OverheadSimple ||
		c.OverheadOptimized != p.OverheadOptimized || c.EnqueuedFraction != p.EnqueuedFraction ||
		c.PendingExtraPositives != p.PendingExtraPositives {
		return fmt.Errorf("producer columns differ from platch: window %v/%v, enqueued %v/%v, pending %d/%d",
			c.ActiveWindowFraction, p.ActiveWindowFraction, c.EnqueuedFraction, p.EnqueuedFraction,
			c.PendingExtraPositives, p.PendingExtraPositives)
	}
	const tol = 1e-9
	if math.Abs(c.QueueOverheadSimple-p.QueueOverheadSimple) > tol ||
		math.Abs(c.QueueOverheadOptimized-p.QueueOverheadOptimized) > tol {
		return fmt.Errorf("queue overhead %v/%v differs from platch's %v/%v",
			c.QueueOverheadSimple, c.QueueOverheadOptimized, p.QueueOverheadSimple, p.QueueOverheadOptimized)
	}
	return nil
}

// setReplayCounts reports the layer counts of one traced call.
func setReplayCounts(r *report, p string, res latch.BackendResult, snap latch.MetricsSnapshot, finish time.Duration) {
	switch v := res.(type) {
	case slatch.Result:
		r.set("replay.slatch.switches."+p, "count", float64(v.Switches))
	case platch.Result:
		r.set("replay.platch.queue_stalls."+p, "count", float64(snap.QueueStalls))
	case platch.ConcurrentResult:
		r.set("replay.cplatch.flagged_share."+p, "ratio", share(float64(v.FlaggedEvents), float64(v.Events)))
		r.set("replay.cplatch.finish_ms."+p, "ms", ms(finish))
		r.set("replay.ring.producer_stalls."+p, "count", float64(v.Ring.ProducerStalls))
		r.set("replay.ring.occupancy_max."+p, "count", float64(v.Ring.OccupancyMax))
	case hlatch.Result:
		r.set("replay.latch.tlb_resolved_share."+p, "ratio", share(float64(snap.ResolvedTLB), float64(snap.CoarseChecks)))
		r.set("replay.latch.ctc_misses_per_kcheck."+p, "count", 1000*share(float64(snap.CTCMisses), float64(snap.CoarseChecks)))
	}
}

// profileFor returns the profile a request streams, seeded as latch.Run
// seeds it.
func profileFor(req latch.RunRequest) (workload.Profile, error) {
	p, err := workload.Get(req.Workload)
	if err != nil {
		return p, err
	}
	if req.Seed != 0 {
		p.Seed = req.Seed
	}
	return p, nil
}
