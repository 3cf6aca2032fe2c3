// Package paperrun is the reproducible experiment-grid pipeline behind
// `latch-paper` (ROADMAP item 5): a declarative grid file names the cells
// of a paper-style evaluation — backend sweeps, cache-geometry sweeps,
// selective-tracing fractions, and whole catalog experiments — with a
// repeat count, and the pipeline drives the latch.Run facade and the
// internal/experiments runner through every cell, once per repeat under a
// distinct derived seed.
//
// Everything that lands under csv/ in a run tree sits on the deterministic
// side of the determinism boundary (see internal/experiments.JobStat): a
// sample is a pure function of (grid, cell, variant, workload, repeat), so
// re-running the same grid produces byte-identical CSV trees — `make
// paper-smoke` and TestExecuteByteIdentical pin this. Wall-clock and
// machine facts live only in manifest.json, logs/, and the BENCH history.
package paperrun

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"latch"
	"latch/internal/experiments"
)

// Cell kinds.
const (
	// KindBackend runs registered backends through the latch.Run facade:
	// every (backend, sampling fraction, workload) combination is one
	// variant.
	KindBackend = "backend"
	// KindGeometry sweeps one scheme-specific configuration axis (cache
	// geometry, timeout, queue depth) through the scheme's own Run.
	KindGeometry = "geometry"
	// KindExperiment regenerates catalog experiments through the
	// internal/experiments runner, once per repeat under a distinct seed
	// salt, and flattens the rendered tables into numeric samples.
	KindExperiment = "experiment"
)

// geometryAxes maps each sweepable configuration axis to the scheme whose
// config carries it.
var geometryAxes = map[string]string{
	"ctc_entries": "hlatch",
	"domain_size": "hlatch",
	"timeout":     "slatch",
	"queue_depth": "platch",
}

// Cell is one experiment of the grid. Which fields apply depends on Kind;
// Validate rejects contradictions up front so a bad grid fails before any
// cell has burned time.
type Cell struct {
	// ID names the cell; it becomes the csv/<id>.csv file name and the
	// first CSV column. Required, unique within the grid.
	ID string `json:"id"`
	// Kind selects the cell machinery: backend, geometry, or experiment.
	Kind string `json:"kind"`

	// Backends lists registered integration names (backend cells).
	Backends []string `json:"backends,omitempty"`
	// Workloads lists calibrated profile names (backend and geometry
	// cells).
	Workloads []string `json:"workloads,omitempty"`
	// SampleFractions, when non-empty, sweeps the selective-tracing
	// source-sampling fraction in [0, 1].
	SampleFractions []float64 `json:"sample_fractions,omitempty"`

	// Axis is the swept configuration parameter of a geometry cell:
	// ctc_entries or domain_size (H-LATCH), timeout (S-LATCH), or
	// queue_depth (P-LATCH). The scheme is implied by the axis.
	Axis string `json:"axis,omitempty"`
	// Values are the axis values to sweep.
	Values []int `json:"values,omitempty"`

	// Experiments lists catalog experiment ids (experiment cells).
	Experiments []string `json:"experiments,omitempty"`
	// Workers bounds the experiment runner's worker pool; 0 is one per
	// CPU. Results are identical for every value.
	Workers int `json:"workers,omitempty"`

	// Events overrides the grid's stream length for this cell.
	Events uint64 `json:"events,omitempty"`
	// Headline names the metric whose per-variant mean this cell
	// contributes to BENCH_history.json. Empty keeps the cell out of the
	// history headline.
	Headline string `json:"headline,omitempty"`
}

// Grid is the declarative description of one full paper run.
type Grid struct {
	// Name labels the grid in manifests and the BENCH history.
	Name string `json:"name"`
	// Repeats is how many independently seeded times every variant runs;
	// the analyzer's dispersion statistics are across repeats. At least 1.
	Repeats int `json:"repeats"`
	// BaseSeed roots every derived per-repeat seed. Two runs of the same
	// grid file are byte-identical; change BaseSeed to sample a fresh set
	// of streams.
	BaseSeed int64 `json:"base_seed"`
	// Events is the default stream length for cells that do not override
	// it; 0 selects latch.DefaultRunEvents.
	Events uint64 `json:"events,omitempty"`
	// Cells are the experiments of the grid, run in order.
	Cells []Cell `json:"cells"`
}

// LoadGrid parses and validates a grid file. An unknown key is an error, so
// a typo or a retired field cannot silently run a different grid. The
// returned hash is the SHA-256 of the raw bytes — the manifest records it
// so an analysis is tied to the exact grid that produced the data.
func LoadGrid(raw []byte) (Grid, string, error) {
	var g Grid
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, "", fmt.Errorf("paperrun: parse grid: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Grid{}, "", fmt.Errorf("paperrun: parse grid: data after the grid object")
	}
	if err := g.Validate(); err != nil {
		return Grid{}, "", err
	}
	sum := sha256.Sum256(raw)
	return g, hex.EncodeToString(sum[:]), nil
}

// Validate reports the first problem with the grid.
func (g Grid) Validate() error {
	if g.Name == "" {
		return fmt.Errorf("paperrun: grid needs a name")
	}
	if g.Repeats < 1 {
		return fmt.Errorf("paperrun: grid %s: repeats must be at least 1, got %d", g.Name, g.Repeats)
	}
	if len(g.Cells) == 0 {
		return fmt.Errorf("paperrun: grid %s has no cells", g.Name)
	}
	seen := map[string]bool{}
	for i, c := range g.Cells {
		if c.ID == "" {
			return fmt.Errorf("paperrun: grid %s: cell %d has no id", g.Name, i)
		}
		if seen[c.ID] {
			return fmt.Errorf("paperrun: grid %s: duplicate cell id %q", g.Name, c.ID)
		}
		seen[c.ID] = true
		if err := c.validate(); err != nil {
			return fmt.Errorf("paperrun: grid %s: cell %s: %w", g.Name, c.ID, err)
		}
	}
	return nil
}

func (c Cell) validate() error {
	switch c.Kind {
	case KindBackend:
		if len(c.Backends) == 0 || len(c.Workloads) == 0 {
			return fmt.Errorf("backend cells need backends and workloads")
		}
		known := map[string]bool{}
		for _, b := range latch.Backends() {
			known[b] = true
		}
		for _, b := range c.Backends {
			if !known[b] {
				return fmt.Errorf("unknown backend %q (registered: %v)", b, latch.Backends())
			}
		}
		for _, f := range c.SampleFractions {
			if !(f >= 0 && f <= 1) {
				return fmt.Errorf("sample fraction %v outside [0, 1]", f)
			}
		}
	case KindGeometry:
		if _, ok := geometryAxes[c.Axis]; !ok {
			return fmt.Errorf("unknown geometry axis %q (known: ctc_entries, domain_size, timeout, queue_depth)", c.Axis)
		}
		if len(c.Values) == 0 || len(c.Workloads) == 0 {
			return fmt.Errorf("geometry cells need values and workloads")
		}
		for _, v := range c.Values {
			if v < 1 {
				return fmt.Errorf("axis values must be positive, got %d", v)
			}
		}
	case KindExperiment:
		if len(c.Experiments) == 0 {
			return fmt.Errorf("experiment cells need experiment ids")
		}
		for _, id := range c.Experiments {
			if _, err := experiments.Lookup(id); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown cell kind %q (known: backend, geometry, experiment)", c.Kind)
	}
	if err := validateWorkloads(c.Workloads); err != nil {
		return err
	}
	return nil
}

func validateWorkloads(names []string) error {
	known := map[string]bool{}
	for _, w := range latch.Workloads() {
		known[w] = true
	}
	for _, w := range names {
		if !known[w] {
			return fmt.Errorf("unknown workload %q (known: %v)", w, latch.Workloads())
		}
	}
	return nil
}

// events resolves the effective stream length of a cell.
func (g Grid) events(c Cell) uint64 {
	if c.Events > 0 {
		return c.Events
	}
	if g.Events > 0 {
		return g.Events
	}
	return latch.DefaultRunEvents
}
