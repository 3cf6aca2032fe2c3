package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"latch/internal/stats"
	"latch/internal/workload"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload measurement produces.
type report struct {
	attempted, failed int64
	// problems describes the first failed output checks.
	problems []string
	// notes are readable lines that are not metrics.
	notes []string
	// metrics are the figures of the JSON result line: the end-to-end
	// metrics of an untraced run, or the per-layer metrics of a traced one.
	metrics map[string]metric
	// named are the workload's own end-to-end figures (slatch_ns_per_event,
	// program_mips, serve_p99_ms, ...), printed by name and reported
	// together by --workload all.
	named map[string]metric
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, named: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

func (r *report) setNamed(name, unit string, v float64) { r.named[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and keeps its reason.
func (r *report) fail(format string, args ...any) { r.failOps(1, format, args...) }

// failOps counts n failed operations sharing one reason.
func (r *report) failOps(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setWork reports the end-to-end work metrics of ops operations.
// norm_ms_per_op is the median over the run's rounds of CPU time per
// operation, scaled by the reference computation timed in that round: CPU
// time leaves out the time the host runs another guest on this one's CPUs,
// and the scaling takes out the host's changes of speed. alloc_kib_per_op
// is the heap allocated over the operations, per operation. Both are per
// operation rather than per instruction because the serve load's
// instructions per job change with the seed's input lengths, while its
// cost per job, mostly building the System, does not.
func (r *report) setWork(c *calibrator, allocated uint64, ops int) {
	r.set("norm_ms_per_op", "ms", median(c.norm)/1e6)
	r.set("alloc_kib_per_op", "KiB", share(float64(allocated)/1024, float64(ops)))
	r.note("%d rounds; reference computation %.3f ms (median of %d samples)", len(c.norm), median(c.all)/1e6, len(c.all))
}

// layerSumTolerance bounds each workload's unattributed share: the traced
// per-layer self times must add up to the untraced end-to-end time within
// this fraction of it.
const layerSumTolerance = 0.25

// setLayerSum reports a workload's tracing overhead and unattributed share:
// how far the traced end-to-end time, and the sum of the traced layers'
// self times, sit from the untraced end-to-end time.
func (r *report) setLayerSum(name string, untraced, traced, layers time.Duration) {
	u := float64(untraced)
	r.set(name+".tracing_overhead_share", "ratio", share(float64(traced)-u, u))
	un := share(u-float64(layers), u)
	r.set(name+".unattributed_share", "ratio", un)
	verdict := "within"
	if math.Abs(un) > layerSumTolerance {
		verdict = "OUTSIDE"
	}
	fmt.Printf("%s: layer sum %.2f ms vs untraced %.2f ms: %s the ±%.0f%% tolerance\n",
		name, ms(layers), ms(untraced), verdict, 100*layerSumTolerance)
}

const (
	// setupRepeats is how many times a workload sets up; setup_s is the
	// median, so one slow set-up does not decide the figure.
	setupRepeats = 7
	// setupSamples is how many reference samples precede each set-up.
	setupSamples = 3
)

// timedSetup runs setup setupRepeats times and returns the last state with
// the median set-up time: the process's CPU seconds, scaled by the
// reference samples taken just before, like norm_ms_per_op. discard, if
// non-nil, releases each earlier state.
func timedSetup[T any](setup func() (T, error), discard func(T)) (T, float64, error) {
	var st T
	var secs []float64
	var cal calibrator
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && discard != nil {
			discard(st)
		}
		// Each set-up starts from a collected heap, so that garbage an
		// earlier one left does not decide when this one collects.
		runtime.GC()
		for k := 0; k < setupSamples; k++ {
			cal.sample()
		}
		start := cpuTime()
		var err error
		if st, err = setup(); err != nil {
			return st, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, cal.scaled(cpuTime()-start)/1e9)
	}
	return st, median(secs), nil
}

// subSeed derives the seed of one consumer of the workload seed.
func subSeed(seed int64, label string) int64 {
	return workload.DeriveSeed(seed, "perfbench", label)
}

// percentile is stats.Percentile over a sample the caller knows is
// non-empty; an empty one reads as NaN.
func percentile(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return math.NaN()
	}
	return v
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share returns part/whole, or 0 for an empty whole.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// cpuTime is the CPU time the process has used, over all its threads. The
// kernel leaves steal time out of it.
func cpuTime() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// cpuClock reads one of the kernel's CPU-time clocks.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// heapAllocated is the heap the process has allocated so far, in bytes.
func heapAllocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// maxRSSMiB is the process's peak resident set.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
