package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spansDir is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
const spansDir = ".bench_build/spans"

// span is one timed call the benchmark made into a layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer's base time
	parent     int           // index of the enclosing span; -1 for a root
	op         int64         // the run or request the span belongs to
}

// tracer keeps the spans of a traced run in memory and writes them out when
// the run ends. It is not safe for concurrent use: concurrent operations
// record their timestamps themselves and add spans after joining.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index. The clock is read after the
// append, so growing the span slice is not charged to the span.
func (t *tracer) begin(name string, parent int, op int64) int {
	t.spans = append(t.spans, span{name: name, parent: parent, op: op})
	i := len(t.spans) - 1
	t.spans[i].start = time.Since(t.base)
	return i
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	s := &t.spans[i]
	s.end = time.Since(t.base)
	return s.end - s.start
}

// add records a span timed elsewhere and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent int, op int64) int {
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.base), end: end.Sub(t.base), parent: parent, op: op})
	return len(t.spans) - 1
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	count       int
	total, self time.Duration
}

// totals aggregates spans by name. A span's self time is its duration
// minus the durations of the spans directly inside it.
func (t *tracer) totals() map[string]spanTotals {
	inner := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			inner[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]spanTotals)
	for i, s := range t.spans {
		a := out[s.name]
		a.count++
		a.total += s.end - s.start
		a.self += s.end - s.start - inner[i]
		out[s.name] = a
	}
	return out
}

// write saves the spans as tab-separated lines: op, name, start and end in
// nanoseconds since the tracer's base, and the parent span's line number
// (-1 for a root).
func (t *tracer) write(name string) error {
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(spansDir, name+".tsv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tname\tstart_ns\tend_ns\tparent")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", s.op, s.name, s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timerCost is the median duration of an empty span: the cost of the two
// clock reads that bracket every timed call, subtracted from sampled calls.
func timerCost() time.Duration {
	t := newTracer()
	durs := make([]float64, 1001)
	for i := range durs {
		durs[i] = float64(t.end(t.begin("", -1, 0)))
	}
	return time.Duration(median(durs))
}
