// Command latch-experiments regenerates the tables and figures of the
// paper's evaluation from this repository's implementation.
//
// Usage:
//
//	latch-experiments                      # run everything
//	latch-experiments -exp table6,figure16
//	latch-experiments -backend slatch,hlatch  # registry-driven summaries
//	latch-experiments -backend cplatch     # concurrent P-LATCH, one monitor goroutine
//	latch-experiments -list
//	latch-experiments -events 5000000      # longer, lower-noise runs
//	latch-experiments -workers 8           # bound the worker pool
//	latch-experiments -workers 1 -stats    # serial reference + job table
//	latch-experiments -metrics out.json    # dump the telemetry registry
//	latch-experiments -exp sampling -sample 0.25 -sample-seed 7
//	latch-experiments -policy pol.json     # run every pass under a policy
//
// Experiments fan out one job per (experiment, benchmark) pair on a worker
// pool sized by -workers (default: one worker per CPU). Every job derives
// its RNG seed from its identity, so the output is bit-identical for every
// worker count — only the elapsed time changes. -stats appends a per-pass
// job summary so the achieved parallelism is observable; with -format json
// it is emitted as one more JSON object on stdout rather than loose text.
// -metrics writes the per-pass telemetry counters (see internal/telemetry)
// accumulated by every simulation pass the selected experiments ran.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"latch/internal/experiments"
	"latch/internal/policy"
	"latch/internal/stats"
)

func main() {
	var (
		list        = flag.Bool("list", false, "list experiment ids and exit")
		exp         = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		events      = flag.Uint64("events", 0, "override stream length for cache/overhead experiments")
		epochEvents = flag.Uint64("epoch-events", 0, "override stream length for temporal experiments")
		format      = flag.String("format", "text", "output format: text, json, or markdown")
		chart       = flag.Bool("chart", false, "also render bar charts for figure experiments")
		workers     = flag.Int("workers", 0, "worker-pool size for per-benchmark jobs (0 = one per CPU)")
		backend     = flag.String("backend", "", "comma-separated registered backend names: render their registry-driven summary tables")
		showStats   = flag.Bool("stats", false, "print the per-pass job statistics table after the run")
		metricsOut  = flag.String("metrics", "", "write the per-pass telemetry registry to this file as JSON")
		polPath     = flag.String("policy", "", "JSON taint-policy file overlaid onto the default; applies to every pass")
		sampleFrac  = flag.Float64("sample", -1, "source-sampling fraction in [0,1] (selective tracing)")
		sampleSeed  = flag.Uint64("sample-seed", 0, "sampler seed for -sample (or to override the -policy file's)")
	)
	flag.Parse()
	if *format != "text" && *format != "json" && *format != "markdown" {
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}

	if *list {
		for _, e := range experiments.Catalog {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := experiments.DefaultOptions()
	if *events > 0 {
		opts.Events = *events
	}
	if *epochEvents > 0 {
		opts.EpochEvents = *epochEvents
	}
	opts.Workers = *workers
	if *polPath != "" || *sampleFrac >= 0 || *sampleSeed != 0 {
		pol := policy.Default()
		if *polPath != "" {
			data, err := os.ReadFile(*polPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			if err := json.Unmarshal(data, &pol); err != nil {
				fmt.Fprintf(os.Stderr, "bad -policy file: %v\n", err)
				os.Exit(2)
			}
		}
		if *sampleFrac >= 0 {
			pol.Sampling.SampleFraction = *sampleFrac
		}
		if *sampleSeed != 0 {
			pol.Sampling.SampleSeed = *sampleSeed
		}
		if err := pol.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.Policy = pol
	}
	runner := experiments.NewRunner(opts)

	selected := experiments.Catalog
	if *exp != "" || *backend != "" {
		selected = selected[:0:0]
		if *exp != "" {
			for _, id := range strings.Split(*exp, ",") {
				e, err := experiments.Lookup(strings.TrimSpace(id))
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
				selected = append(selected, e)
			}
		}
	}
	for _, name := range splitList(*backend) {
		name := name
		selected = append(selected, experiments.Experiment{
			ID:    "backend-" + name,
			Title: "Backend summary: " + name,
			Run:   func(r *experiments.Runner) (*stats.Table, error) { return r.BackendTable(name) },
		})
	}

	enc := json.NewEncoder(os.Stdout)
	runStart := time.Now()
	for _, e := range selected {
		start := time.Now()
		table, err := e.Run(runner)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *format == "markdown" {
			fmt.Println(table.Markdown())
			continue
		}
		if *format == "json" {
			if err := enc.Encode(struct {
				ID    string       `json:"id"`
				Table *stats.Table `json:"table"`
			}{e.ID, table}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		fmt.Println(table.String())
		if *chart {
			if c, ok := experiments.Chart(e.ID, table); ok {
				fmt.Println(c)
			}
		}
		fmt.Printf("[%s regenerated in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *showStats {
		nw := opts.Workers
		if nw <= 0 {
			nw = runtime.GOMAXPROCS(0)
		}
		elapsed := time.Since(runStart).Round(time.Millisecond)
		table := runner.StatsSummary()
		switch *format {
		case "json":
			// One more object on the same stream, shaped like the experiment
			// records plus the run-level fields, so stdout stays a valid
			// JSON-lines document.
			if err := enc.Encode(struct {
				ID        string       `json:"id"`
				Table     *stats.Table `json:"table"`
				ElapsedMS int64        `json:"elapsed_ms"`
				Workers   int          `json:"workers"`
			}{"jobstats", table, elapsed.Milliseconds(), nw}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		case "markdown":
			fmt.Println(table.Markdown())
			fmt.Printf("[run elapsed %v with %d workers]\n", elapsed, nw)
		default:
			fmt.Println(table.String())
			fmt.Printf("[run elapsed %v with %d workers]\n", elapsed, nw)
		}
	}
	if *metricsOut != "" {
		data, err := json.MarshalIndent(runner.MetricsReport(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*metricsOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// splitList splits a comma-separated flag value, trimming whitespace and
// dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
