package main

import (
	"runtime"
	"time"
)

// The shared host the benchmark was written on changed speed by up to a
// third over seconds to minutes with other guests' load, in CPU time as
// much as in wall time. So both end-to-end timings are scaled by a
// reference computation timed between the workload's operations: a small
// register interpreter over a fixed random program, whose speed followed
// the workloads' own through those swings (over 1 s windows of the program
// workload, a correlation of 0.85) while a plain arithmetic loop did not.
// The reference is benchmark code and stays fixed, so a change to the
// repository moves only the workload's side of the ratio.

const (
	refMemWords = 1 << 14 // the reference's data memory, 64 KiB
	refCodeLen  = 4096    // the reference program, opcodes 0–7
	refPasses   = 20      // passes over the program per sample, about 1 ms
	// refNs is the time one sample is scaled to: norm_ms_per_op and
	// setup_s are CPU times on a host that runs the reference in 1 ms.
	refNs = 1e6
)

var (
	refMem  = make([]uint32, refMemWords)
	refCode = func() []uint8 {
		c := make([]uint8, refCodeLen)
		x := uint32(7)
		for i := range c {
			x = x*1103515245 + 12345
			c[i] = uint8(x>>16) % 8
		}
		return c
	}()
	// refSink keeps the reference's result live.
	refSink uint32
)

// reference runs the reference computation once.
func reference() uint32 {
	var r [8]uint32
	for pass := 0; pass < refPasses; pass++ {
		for pc, op := range refCode {
			a, b := pc&7, (pc>>3)&7
			switch op {
			case 0:
				r[a] += r[b] + 1
			case 1:
				r[a] ^= r[b] << 1
			case 2:
				r[a] = refMem[r[b]%refMemWords]
			case 3:
				refMem[r[a]%refMemWords] = r[b]
			case 4:
				if r[a] > r[b] {
					r[a] -= r[b]
				}
			case 5:
				r[a] = r[a]*2654435761 + uint32(pc)
			case 6:
				r[a] >>= 3
			default:
				r[a] |= r[b]
			}
		}
	}
	return r[0] + r[7]
}

// threadCPU is the CPU time of the calling goroutine's OS thread.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// calibrator samples the reference between a workload's operations and
// scales each round of operations by the rounds' own samples.
type calibrator struct {
	samples []float64     // the current round's reference times, ns
	spent   time.Duration // CPU time the current round's samples took
	wall    time.Duration // wall time the current round's samples took
	norm    []float64     // each closed round's scaled CPU ns per operation
	all     []float64     // every sample, for the readable output
}

// sample times one run of the reference by the CPU clock of the thread it
// is locked to, so that work on the other CPU is not counted in it.
func (c *calibrator) sample() {
	runtime.LockOSThread()
	start, w0 := threadCPU(), time.Now()
	refSink += reference()
	d, w := threadCPU()-start, time.Since(w0)
	runtime.UnlockOSThread()
	c.samples = append(c.samples, float64(d))
	c.all = append(c.all, float64(d))
	c.spent += d
	c.wall += w
}

// scaled returns d, in ns, scaled to a host that runs the reference in
// refNs by the current round's samples, and starts the next round.
func (c *calibrator) scaled(d time.Duration) float64 {
	v := float64(d) * refNs / median(c.samples)
	c.samples, c.spent, c.wall = c.samples[:0], 0, 0
	return v
}

// round closes a round of ops operations; cpu is the process CPU time of
// the operations and of the samples taken among or alongside them.
func (c *calibrator) round(cpu time.Duration, ops int) {
	v := c.scaled(cpu - c.spent)
	if ops > 0 {
		c.norm = append(c.norm, v/float64(ops))
	}
}
