// Package trace defines the canonical per-instruction event record exchanged
// between the workload generators, the co-simulation monitor (which builds
// one per instruction the VM commits), and the LATCH models, plus the
// analyses the paper performs over such streams: the taint-percentage
// characterization of Tables 1–2 and the taint-free epoch analysis of
// Figure 5.
package trace

import "latch/internal/stats"

// Event describes one committed instruction as seen by LATCH's extraction
// logic: whether it referenced memory, where, how wide, and — as ground
// truth from the byte-precise engine — whether it touched tainted data.
type Event struct {
	Seq     uint64 // commit order
	PC      uint32
	IsMem   bool   // instruction has a memory operand
	IsWrite bool   // the memory operand is a store
	Addr    uint32 // memory operand address (valid when IsMem)
	Size    uint8  // access width in bytes (valid when IsMem)
	Tainted bool   // instruction manipulates tainted data (ground truth)
}

// Sink consumes a stream of events.
type Sink interface {
	Consume(ev Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(ev Event)

// Consume implements Sink.
func (f SinkFunc) Consume(ev Event) { f(ev) }

// EpochBounds are the taint-free epoch length buckets of Figure 5.
var EpochBounds = []uint64{100, 1_000, 10_000, 100_000, 1_000_000}

// EpochAnalyzer measures the temporal locality of a stream: the fraction of
// instructions touching tainted data (Tables 1–2) and the share of
// instructions falling in taint-free epochs of various minimum lengths
// (Figure 5). An epoch is a maximal run of consecutive instructions none of
// which touches tainted data.
type EpochAnalyzer struct {
	hist       *stats.Histogram
	run        uint64 // length of the current taint-free run
	total      uint64
	tainted    uint64
	flushed    bool
	epochCount uint64
	longestRun uint64
}

// NewEpochAnalyzer returns an analyzer using the paper's Figure 5 buckets.
func NewEpochAnalyzer() *EpochAnalyzer {
	return &EpochAnalyzer{hist: stats.NewHistogram(EpochBounds...)}
}

// Consume implements Sink.
func (a *EpochAnalyzer) Consume(ev Event) {
	if a.flushed {
		panic("trace: EpochAnalyzer used after Finish")
	}
	a.total++
	if ev.Tainted {
		a.tainted++
		a.closeRun()
		return
	}
	a.run++
}

func (a *EpochAnalyzer) closeRun() {
	if a.run == 0 {
		return
	}
	a.hist.Add(a.run)
	a.epochCount++
	if a.run > a.longestRun {
		a.longestRun = a.run
	}
	a.run = 0
}

// Finish closes the trailing epoch. Further Consume calls panic.
func (a *EpochAnalyzer) Finish() {
	a.closeRun()
	a.flushed = true
}

// TotalInstructions returns the number of events consumed.
func (a *EpochAnalyzer) TotalInstructions() uint64 { return a.total }

// TaintedInstructions returns the number of events that touched taint.
func (a *EpochAnalyzer) TaintedInstructions() uint64 { return a.tainted }

// TaintedPercent returns the Table 1/2 metric: the percentage of
// instructions touching tainted data.
func (a *EpochAnalyzer) TaintedPercent() float64 {
	if a.total == 0 {
		return 0
	}
	return 100 * float64(a.tainted) / float64(a.total)
}

// EpochCount returns the number of taint-free epochs observed.
func (a *EpochAnalyzer) EpochCount() uint64 { return a.epochCount }

// LongestEpoch returns the longest taint-free epoch in instructions.
func (a *EpochAnalyzer) LongestEpoch() uint64 { return a.longestRun }

// EpochShare returns, for bucket i of EpochBounds, the fraction of *all*
// instructions that executed inside taint-free epochs of at least
// EpochBounds[i] instructions — the y-axis of Figure 5.
func (a *EpochAnalyzer) EpochShare(i int) float64 {
	return a.hist.WeightShare(i, a.total)
}

// EpochShares returns EpochShare for every bucket.
func (a *EpochAnalyzer) EpochShares() []float64 {
	out := make([]float64, len(EpochBounds))
	for i := range out {
		out[i] = a.EpochShare(i)
	}
	return out
}
