package paperrun

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"latch"
	"latch/internal/experiments"
	"latch/internal/hlatch"
	"latch/internal/platch"
	"latch/internal/slatch"
	"latch/internal/workload"
)

// Sample is one deterministic measurement: the value of one metric of one
// workload, in one variant of one cell, on one repeat. The CSV files under
// csv/ are exactly these records.
type Sample struct {
	Cell     string
	Variant  string
	Repeat   int
	Workload string
	Metric   string
	Value    float64
}

// csvHeader is the schema of every per-cell CSV file.
var csvHeader = []string{"cell", "variant", "repeat", "workload", "metric", "value"}

// Manifest records the run's provenance: everything machine- or
// time-dependent lives here (and in logs/), never in csv/.
type Manifest struct {
	Created    string `json:"created"`
	GridName   string `json:"grid_name"`
	GridSHA256 string `json:"grid_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitRev     string `json:"git_rev"`
	Repeats    int    `json:"repeats"`
	Cells      int    `json:"cells"`
}

// RunResult summarizes one Execute.
type RunResult struct {
	Dir     string
	Samples int
}

// gitRev best-effort resolves the working tree's HEAD commit; runs happen
// from checkouts, but a missing git is provenance lost, not a failure.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Execute runs every cell of the grid and writes the run tree:
//
//	<dir>/manifest.json   provenance (timestamped, machine-dependent)
//	<dir>/grid.json       verbatim copy of the grid file
//	<dir>/csv/<cell>.csv  deterministic per-cell samples
//	<dir>/logs/run.log    progress log (wall-clock timings live here)
//	<dir>/analysis/       empty until `latch-paper analyze` fills it
//
// raw is the grid file's bytes (already validated by LoadGrid); logw, when
// non-nil, additionally receives the progress log.
func Execute(ctx context.Context, g Grid, raw []byte, dir string, logw io.Writer) (RunResult, error) {
	_, hash, err := LoadGrid(raw)
	if err != nil {
		return RunResult{}, err
	}
	for _, sub := range []string{"csv", "logs", "analysis"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return RunResult{}, err
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "grid.json"), raw, 0o644); err != nil {
		return RunResult{}, err
	}
	man := Manifest{
		Created:    time.Now().UTC().Format(time.RFC3339),
		GridName:   g.Name,
		GridSHA256: hash,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitRev:     gitRev(),
		Repeats:    g.Repeats,
		Cells:      len(g.Cells),
	}
	if err := writeJSON(filepath.Join(dir, "manifest.json"), man); err != nil {
		return RunResult{}, err
	}

	logFile, err := os.Create(filepath.Join(dir, "logs", "run.log"))
	if err != nil {
		return RunResult{}, err
	}
	defer logFile.Close()
	sink := io.Writer(logFile)
	if logw != nil {
		sink = io.MultiWriter(logFile, logw)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(sink, format+"\n", args...)
	}

	logf("grid %s (%d cells, %d repeats) -> %s", g.Name, len(g.Cells), g.Repeats, dir)
	total := 0
	for _, c := range g.Cells {
		start := time.Now()
		samples, err := runCell(ctx, g, c)
		if err != nil {
			return RunResult{}, fmt.Errorf("cell %s: %w", c.ID, err)
		}
		if err := writeCellCSV(filepath.Join(dir, "csv", c.ID+".csv"), samples); err != nil {
			return RunResult{}, err
		}
		total += len(samples)
		logf("cell %-24s %6d samples in %v", c.ID, len(samples), time.Since(start).Round(time.Millisecond))
	}
	logf("done: %d samples", total)
	return RunResult{Dir: dir, Samples: total}, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeCellCSV writes one cell's samples. The writer is fully
// deterministic: samples arrive in nested-loop order (variant, workload,
// repeat, metric) and floats render via the shortest round-trip form.
func writeCellCSV(path string, samples []Sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write(csvHeader); err != nil {
		f.Close()
		return err
	}
	for _, s := range samples {
		rec := []string{s.Cell, s.Variant, strconv.Itoa(s.Repeat), s.Workload,
			s.Metric, strconv.FormatFloat(s.Value, 'g', -1, 64)}
		if err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runCell(ctx context.Context, g Grid, c Cell) ([]Sample, error) {
	switch c.Kind {
	case KindBackend:
		return runBackendCell(ctx, g, c)
	case KindGeometry:
		return runGeometryCell(ctx, g, c)
	case KindExperiment:
		return runExperimentCell(g, c)
	default:
		return nil, fmt.Errorf("unknown cell kind %q", c.Kind)
	}
}

// repeatSeed derives the RNG seed of one (cell, variant, workload, repeat)
// run from the grid's base seed. Identity-derived seeds are what make the
// whole tree reproducible: the same grid file always replays the same
// streams, and every repeat is a genuinely distinct stream.
func repeatSeed(g Grid, cell, variant, wl string, rep int) int64 {
	s := workload.DeriveSeed(g.BaseSeed, "paperrun", cell, variant, wl, strconv.Itoa(rep))
	if s == 0 {
		// Seed 0 means "keep the calibrated seed" to the facade; nudge the
		// astronomically unlikely collision off the sentinel.
		s = 1
	}
	return s
}

func formatFraction(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// runBackendCell expands backends x sampling fractions x workloads x
// repeats through the latch.Run facade.
func runBackendCell(ctx context.Context, g Grid, c Cell) ([]Sample, error) {
	fracs := c.SampleFractions
	sweepFracs := len(fracs) > 0
	if !sweepFracs {
		fracs = []float64{1}
	}
	var out []Sample
	for _, backend := range c.Backends {
		for _, frac := range fracs {
			variant := backend
			if sweepFracs {
				variant += "/sample=" + formatFraction(frac)
			}
			for _, wl := range c.Workloads {
				for rep := 0; rep < g.Repeats; rep++ {
					seed := repeatSeed(g, c.ID, variant, wl, rep)
					req := latch.RunRequest{
						Backend:  backend,
						Workload: wl,
						Events:   g.events(c),
						Seed:     seed,
					}
					if sweepFracs {
						pol := latch.DefaultPolicy()
						pol.Sampling.SampleFraction = frac
						pol.Sampling.SampleSeed = uint64(seed)
						req.Policy = &pol
					}
					res, err := latch.Run(ctx, req)
					if err != nil {
						return nil, fmt.Errorf("variant %s workload %s repeat %d: %w", variant, wl, rep, err)
					}
					out = append(out, resultSamples(c.ID, variant, rep, res)...)
				}
			}
		}
	}
	return out, nil
}

// resultSamples flattens one backend result into samples via the
// structured export (the same records the experiments tables build on).
func resultSamples(cell, variant string, rep int, res latch.BackendResult) []Sample {
	wm := experiments.ResultMetrics(res)
	out := make([]Sample, 0, len(wm.Metrics)+2)
	out = append(out,
		Sample{cell, variant, rep, wm.Workload, "events", float64(wm.Events)},
		Sample{cell, variant, rep, wm.Workload, "checks", float64(wm.Checks)})
	for _, m := range wm.Metrics {
		out = append(out, Sample{cell, variant, rep, wm.Workload, m.Name, m.Value})
	}
	return out
}

// runGeometryCell sweeps one scheme-specific configuration axis through
// the scheme's own Run — the same pattern the ablation experiments use,
// but repeat-seeded and exported as samples.
func runGeometryCell(ctx context.Context, g Grid, c Cell) ([]Sample, error) {
	scheme := geometryAxes[c.Axis]
	var out []Sample
	for _, v := range c.Values {
		variant := fmt.Sprintf("%s/%s=%d", scheme, c.Axis, v)
		for _, wl := range c.Workloads {
			for rep := 0; rep < g.Repeats; rep++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				p, err := workload.Get(wl)
				if err != nil {
					return nil, err
				}
				p.Seed = repeatSeed(g, c.ID, variant, wl, rep)
				res, err := runGeometry(scheme, c.Axis, v, p, g.events(c))
				if err != nil {
					return nil, fmt.Errorf("variant %s workload %s repeat %d: %w", variant, wl, rep, err)
				}
				out = append(out, resultSamples(c.ID, variant, rep, res)...)
				if pr, ok := res.(platch.Result); ok {
					// The queue-sim overheads are what a queue-depth sweep
					// actually varies, but they sit outside the backend's
					// headline Columns; export them explicitly.
					out = append(out,
						Sample{c.ID, variant, rep, pr.Benchmark, "queue overhead simple", pr.QueueOverheadSimple},
						Sample{c.ID, variant, rep, pr.Benchmark, "queue overhead optimized", pr.QueueOverheadOptimized})
				}
			}
		}
	}
	return out, nil
}

func runGeometry(scheme, axis string, v int, p workload.Profile, events uint64) (latch.BackendResult, error) {
	switch scheme {
	case "hlatch":
		cfg := hlatch.DefaultConfig()
		cfg.Events = events
		switch axis {
		case "ctc_entries":
			cfg.Latch.CTCEntries = v
		case "domain_size":
			cfg.Latch.DomainSize = uint32(v)
		}
		return hlatch.Run(p, cfg)
	case "slatch":
		cfg := slatch.DefaultConfig()
		cfg.Events = events
		cfg.Costs.TimeoutInstrs = uint64(v)
		return slatch.Run(p, cfg)
	case "platch":
		cfg := platch.DefaultConfig()
		cfg.Events = events
		cfg.QueueDepth = v
		return platch.Run(p, cfg)
	}
	return nil, fmt.Errorf("unknown geometry scheme %q", scheme)
}

// runExperimentCell regenerates catalog experiments once per repeat, each
// repeat under its own seed salt (a fresh Runner, so memoized passes never
// leak across repeats), and flattens the rendered tables into samples. The
// table row label lands in the workload column and the column header in
// the metric column.
func runExperimentCell(g Grid, c Cell) ([]Sample, error) {
	var out []Sample
	for _, id := range c.Experiments {
		exp, err := experiments.Lookup(id)
		if err != nil {
			return nil, err
		}
		for rep := 0; rep < g.Repeats; rep++ {
			opts := experiments.DefaultOptions()
			if ev := g.events(c); ev != opts.Events {
				// Keep the default 1:4:2 length ratio between the cache,
				// temporal, and granularity passes when the grid scales
				// the stream length.
				opts.Events = ev
				opts.EpochEvents = 4 * ev
				opts.Fig6Events = 2 * ev
			}
			opts.Workers = c.Workers
			opts.SeedSalt = fmt.Sprintf("paperrun/%s/%s/r%d", c.ID, id, rep)
			runner := experiments.NewRunner(opts)
			table, err := exp.Run(runner)
			if err != nil {
				return nil, fmt.Errorf("experiment %s repeat %d: %w", id, rep, err)
			}
			for _, cellv := range experiments.TableMetrics(table) {
				out = append(out, Sample{c.ID, id, rep, cellv.Row, cellv.Column, cellv.Value})
			}
		}
	}
	return out, nil
}
