// Command perfbench is the repository's benchmark. Four seeded workloads
// drive the public entry points the way a user does — latch.Run (replay),
// latch.New + System.Run (program), internal/serve over in-process HTTP
// (serve) and one pass over experiments.Catalog (catalog) — and report
// end-to-end metrics with tracing off. With --trace 1 it instead runs the
// traced breakdown of every workload: spans around the benchmark's calls
// into each layer, giving per-layer self time and counts, the tracing
// overhead and each workload's unattributed share. README.md lists every
// metric, the layer each one belongs to and the end-to-end metric it
// should move.
//
// Run it from the repository root, which run.sh builds it from:
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 0 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every output check that fails
// counts its operation as failed and makes correct false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// measure runs the untraced measurement for about d and reports the
	// end-to-end metrics setup_s, norm_ms_per_op and alloc_kib_per_op.
	measure func(seed int64, d time.Duration) (*report, error)
	// trace runs one untraced and one traced pass of fixed size and reports
	// the workload's per-layer metrics.
	trace func(seed int64) (*report, error)
}

var workloads = []workloadDef{
	{"replay", measureReplay, traceReplay},
	{"program", measureProgram, traceProgram},
	{"serve", measureServe, traceServe},
	{"catalog", measureCatalog, traceCatalog},
}

func main() {
	name := flag.String("workload", "", "replay, program, serve, catalog, or all")
	seed := flag.Int64("seed", 0, "workload seed; 0 is the default seed the recorded digests and golden tables hold for")
	seconds := flag.Int("seconds", 20, "measurement time per workload, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer breakdown of every workload instead")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traced int) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	}
	var sel []workloadDef
	for _, w := range workloads {
		if name == "all" || name == w.name {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 {
		return fmt.Errorf("unknown workload %q (want replay, program, serve, catalog or all)", name)
	}
	if traced == 1 {
		// The per-layer metrics cover every layer, and each layer does its
		// work on one workload, so every traced run traces all four.
		sel = workloads
	}
	total := newReport()
	setup := 0.0
	for _, w := range sel {
		var r *report
		var err error
		if traced == 1 {
			r, err = w.trace(seed)
		} else {
			r, err = w.measure(seed, time.Duration(seconds)*time.Second)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printReport(w.name, r)
		total.attempted += r.attempted
		total.failed += r.failed
		setup += r.metrics["setup_s"].Value
		for k, v := range r.metrics {
			total.metrics[k] = v
		}
		for k, v := range r.named {
			total.named[k] = v
		}
	}
	// An untraced run reports its end-to-end metrics; --workload all
	// reports the workloads' own figures instead. A traced run reports the
	// per-layer metrics, the workloads' own figures among them. The peak
	// resident set is printed, and reported by --workload all; it bounds
	// nothing, as it moved with the host by up to a fifth.
	out := total.metrics
	switch {
	case traced == 1:
		for k, v := range total.named {
			out[k] = v
		}
	case len(sel) > 1:
		out = total.named
		out["setup_s"] = metric{setup, "s"}
		out["max_rss_mib"] = metric{maxRSSMiB(), "MiB"}
	default:
		fmt.Printf("max_rss_mib: %.1f MiB\n", maxRSSMiB())
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{total.failed == 0 && total.attempted > 0, total.attempted, total.failed, out})
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// printReport writes a workload's figures as readable lines.
func printReport(name string, r *report) {
	fmt.Printf("%s: %d operations, %d failed\n", name, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Printf("%s: FAILED %s\n", name, p)
	}
	for _, n := range r.notes {
		fmt.Printf("%s: %s\n", name, n)
	}
	for _, m := range []map[string]metric{r.named, r.metrics} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%s: %-46s %14.4f %s\n", name, k, m[k].Value, m[k].Unit)
		}
	}
}
