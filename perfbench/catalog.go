package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"latch/internal/experiments"
)

// The catalog workload is one serial (Workers: 1) pass over every
// experiments.Catalog entry at the golden run lengths. It is the only
// workload that covers experiments, pool and cosim, and it uses the replay
// layers differently from replay: many short streams, so session
// construction and layout materialization weigh far more.

// catalogOptions returns the golden run lengths; a non-zero seed salts
// every job's stream seed.
func catalogOptions(seed int64) experiments.Options {
	o := experiments.Options{Events: 60_000, EpochEvents: 400_000, Fig6Events: 80_000, Workers: 1}
	if seed != 0 {
		o.SeedSalt = strconv.FormatInt(seed, 10)
	}
	return o
}

// The set-up warms the harness up with short runs of one experiment per
// kind of pass — H-LATCH, P-LATCH, co-simulation and the attack matrix —
// since the ablations and the sampling frontier do not shrink with the
// run lengths.
var (
	catalogWarmIDs     = []string{"table6", "figure15", "cosim", "attacks"}
	catalogWarmOptions = experiments.Options{Events: 2_000, EpochEvents: 20_000, Fig6Events: 4_000, Workers: 1}
)

// goldenDir holds the experiments' golden tables, relative to the
// repository root.
var goldenDir = filepath.Join("internal", "experiments", "testdata")

// catalogPass runs every experiment on a fresh Runner and returns the
// rendered tables, each experiment's error (an empty table is one), and
// the events the pass simulated. each, if non-nil, receives every
// experiment's start and end.
func catalogPass(o experiments.Options, each func(id string, start, end time.Time)) ([]string, []error, uint64) {
	run := experiments.NewRunner(o)
	tables := make([]string, len(experiments.Catalog))
	errs := make([]error, len(experiments.Catalog))
	for i, e := range experiments.Catalog {
		start := time.Now()
		t, err := e.Run(run)
		end := time.Now()
		switch {
		case err != nil:
			errs[i] = err
		case t.Rows() == 0:
			errs[i] = fmt.Errorf("empty table")
		default:
			tables[i] = t.String()
		}
		if each != nil {
			each(e.ID, start, end)
		}
	}
	var events uint64
	for _, js := range run.JobStats() {
		events += js.Events
	}
	return tables, errs, events
}

// catalogChecker checks every pass: each experiment must succeed with a
// non-empty table equal to the run's first pass, and at seed 0 equal to
// its golden file.
type catalogChecker struct {
	golden []string
	first  []string
}

// newCatalogChecker loads the golden tables when seed is 0 and warms the
// harness up with one short pass.
func newCatalogChecker(seed int64) (*catalogChecker, error) {
	c := &catalogChecker{}
	if seed == 0 {
		for _, e := range experiments.Catalog {
			b, err := os.ReadFile(filepath.Join(goldenDir, e.ID+".golden"))
			if err != nil {
				return nil, fmt.Errorf("golden table: %w", err)
			}
			c.golden = append(c.golden, string(b))
		}
	}
	run := experiments.NewRunner(catalogWarmOptions)
	for _, id := range catalogWarmIDs {
		e, err := experiments.Lookup(id)
		if err != nil {
			return nil, err
		}
		if _, err := e.Run(run); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", id, err)
		}
	}
	return c, nil
}

func (c *catalogChecker) check(r *report, tables []string, errs []error) {
	for i, e := range experiments.Catalog {
		r.attempted++
		switch {
		case errs[i] != nil:
			r.fail("%s: %v", e.ID, errs[i])
		case c.golden != nil && tables[i] != c.golden[i]:
			r.fail("%s: table differs from its golden file", e.ID)
		case c.first != nil && tables[i] != c.first[i]:
			r.fail("%s: table differs from the run's first pass", e.ID)
		}
	}
	if c.first == nil {
		c.first = tables
	}
}

func measureCatalog(seed int64, d time.Duration) (*report, error) {
	r := newReport()
	chk, setup, err := timedSetup(func() (*catalogChecker, error) { return newCatalogChecker(seed) }, nil)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", "s", setup)
	opts := catalogOptions(seed)
	var passMs []float64
	var cal calibrator
	a0 := heapAllocated()
	for start := time.Now(); len(passMs) == 0 || time.Since(start) < d; {
		t0, c0 := time.Now(), cpuTime()
		tables, errs, _ := catalogPass(opts, func(string, time.Time, time.Time) { cal.sample() })
		el, cpu := time.Since(t0)-cal.wall, cpuTime()-c0
		chk.check(r, tables, errs)
		passMs = append(passMs, ms(el))
		cal.round(cpu, 1)
	}
	r.setWork(&cal, heapAllocated()-a0, len(passMs))
	r.setNamed("catalog_pass_s", "s", median(passMs)/1e3)
	return r, nil
}

// traceCatalog runs one untraced and one traced pass; the traced pass
// records a span per experiment. A pass memoized inside the Runner is
// charged to the first experiment that triggers it.
func traceCatalog(seed int64) (*report, error) {
	chk, err := newCatalogChecker(seed)
	if err != nil {
		return nil, err
	}
	r := newReport()
	opts := catalogOptions(seed)
	start := time.Now()
	tables, errs, _ := catalogPass(opts, nil)
	untraced := time.Since(start)
	chk.check(r, tables, errs)
	r.setNamed("catalog_pass_s", "s", untraced.Seconds())

	tr := newTracer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := tr.begin("experiments.pass", -1, 0)
	tables, errs, events := catalogPass(opts, func(id string, start, end time.Time) {
		tr.add("experiments."+id, start, end, root, 0)
	})
	traced := tr.end(root)
	runtime.ReadMemStats(&after)
	chk.check(r, tables, errs) // the traced pass must repeat the untraced one

	tot := tr.totals()
	var layers time.Duration
	for _, e := range experiments.Catalog {
		t := tot["experiments."+e.ID]
		r.set("catalog.exp."+e.ID+"_ms", "ms", ms(t.total))
		layers += t.total
	}
	r.set("catalog.alloc_mib", "MiB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	r.set("catalog.gc_cycles", "count", float64(after.NumGC-before.NumGC))
	r.set("catalog.events", "count", float64(events))
	r.setLayerSum("catalog", untraced, traced, layers)
	return r, tr.write("catalog")
}
