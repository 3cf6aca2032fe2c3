// Command latch-paper is the reproducible experiment-grid pipeline: it
// drives the full measurement toolchain — the latch.Run facade, the
// registry-driven backends, and the internal/experiments catalog — through
// a declarative grid of cells with repeats, and aggregates the results into
// paper-grade tables with dispersion statistics.
//
// Usage:
//
//	latch-paper run -grid experiments.json            # run the grid
//	latch-paper run -grid experiments.json -analyze   # ...and analyze it
//	latch-paper analyze paper_runs/20260808T120000Z   # any past run dir
//	latch-paper analyze -history BENCH_history.json <dir>
//	latch-paper smoke                                 # tiny self-checking grid
//
// A run writes a timestamped tree under -out-root (default paper_runs/):
// deterministic per-cell CSVs under csv/, the grid copy and a provenance
// manifest, and captured logs. `analyze` is standalone — it reads only the
// run tree, renders mean/stddev/95%-CI summaries per cell as Markdown and
// LaTeX, and appends the run's headline metrics to the BENCH history
// tracker. `smoke` runs a miniature grid twice, asserts the CSV trees are
// byte-identical, and round-trips the analyzer; `make paper-smoke` wires it
// into `make verify`.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"latch/internal/paperrun"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "smoke":
		err = cmdSmoke(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "latch-paper:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  latch-paper run -grid <file> [-out-root dir] [-repeats n] [-analyze] [-history file]
  latch-paper analyze [-history file] <run-dir>
  latch-paper smoke [-keep]`)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	grid := fs.String("grid", "experiments.json", "grid file")
	outRoot := fs.String("out-root", "paper_runs", "directory that receives the timestamped run tree")
	repeats := fs.Int("repeats", 0, "override the grid's repeat count")
	analyze := fs.Bool("analyze", false, "run the analyzer on the finished tree")
	history := fs.String("history", "BENCH_history.json", "history tracker the analyzer appends to (with -analyze)")
	fs.Parse(args)

	raw, err := os.ReadFile(*grid)
	if err != nil {
		return err
	}
	g, _, err := paperrun.LoadGrid(raw)
	if err != nil {
		return err
	}
	if *repeats > 0 && *repeats != g.Repeats {
		// A repeat override changes the data, so it must survive into the
		// run tree's grid copy for the analysis to stay standalone.
		g.Repeats = *repeats
		if raw, err = remarshalGrid(raw, g.Repeats); err != nil {
			return err
		}
	}
	dir := filepath.Join(*outRoot, time.Now().UTC().Format("20060102T150405Z"))
	res, err := paperrun.Execute(context.Background(), g, raw, dir, os.Stdout)
	if err != nil {
		return err
	}
	fmt.Printf("run tree: %s (%d samples)\n", res.Dir, res.Samples)
	if *analyze {
		if _, err := paperrun.Analyze(res.Dir, *history); err != nil {
			return err
		}
		fmt.Printf("analysis: %s\n", filepath.Join(res.Dir, "analysis"))
	}
	return nil
}

// remarshalGrid rewrites the raw grid bytes with the overridden repeat
// count while keeping the document otherwise intact.
func remarshalGrid(raw []byte, repeats int) ([]byte, error) {
	g, _, err := paperrun.LoadGrid(raw)
	if err != nil {
		return nil, err
	}
	g.Repeats = repeats
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	history := fs.String("history", "BENCH_history.json", "history tracker to append to; empty skips")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("analyze needs exactly one run directory")
	}
	dir := fs.Arg(0)
	a, err := paperrun.Analyze(dir, *history)
	if err != nil {
		return err
	}
	for _, ca := range a.Cells {
		fmt.Println(ca.Table().String())
	}
	fmt.Printf("analysis written to %s\n", filepath.Join(dir, "analysis"))
	return nil
}

// smokeGrid is the miniature self-check grid: two cells, two repeats,
// short streams — it exercises the facade path (cplatch included) and the
// geometry path in seconds.
const smokeGrid = `{
  "name": "paper-smoke",
  "repeats": 2,
  "base_seed": 1,
  "events": 50000,
  "cells": [
    {
      "id": "backends",
      "kind": "backend",
      "backends": ["slatch", "cplatch"],
      "workloads": ["gcc"],
      "headline": "overhead"
    },
    {
      "id": "ctc-geometry",
      "kind": "geometry",
      "axis": "ctc_entries",
      "values": [4, 16],
      "workloads": ["gcc"],
      "headline": "combined miss %"
    }
  ]
}
`

func cmdSmoke(args []string) error {
	fs := flag.NewFlagSet("smoke", flag.ExitOnError)
	keep := fs.Bool("keep", false, "keep the temporary smoke trees for inspection")
	fs.Parse(args)

	base, err := os.MkdirTemp("", "latch-paper-smoke-")
	if err != nil {
		return err
	}
	if *keep {
		fmt.Println("smoke trees under", base)
	} else {
		defer os.RemoveAll(base)
	}

	raw := []byte(smokeGrid)
	g, _, err := paperrun.LoadGrid(raw)
	if err != nil {
		return err
	}
	dirs := []string{filepath.Join(base, "a"), filepath.Join(base, "b")}
	for _, dir := range dirs {
		if _, err := paperrun.Execute(context.Background(), g, raw, dir, nil); err != nil {
			return err
		}
	}

	// Same grid, same seeds: the deterministic CSV trees must be
	// byte-identical between the two runs.
	for _, c := range g.Cells {
		rel := filepath.Join("csv", c.ID+".csv")
		a, err := os.ReadFile(filepath.Join(dirs[0], rel))
		if err != nil {
			return err
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], rel))
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("smoke: %s differs between identical runs — determinism regression", rel)
		}
	}

	history := filepath.Join(base, "BENCH_history.json")
	a, err := paperrun.Analyze(dirs[0], history)
	if err != nil {
		return err
	}
	for _, name := range []string{"summary.md", "summary.tex", "summary.json"} {
		if _, err := os.Stat(filepath.Join(dirs[0], "analysis", name)); err != nil {
			return fmt.Errorf("smoke: analyzer did not write %s: %w", name, err)
		}
	}
	if _, err := os.Stat(history); err != nil {
		return fmt.Errorf("smoke: analyzer did not append the history tracker: %w", err)
	}
	entry := a.HistoryEntry(dirs[0])
	if len(entry.Headlines) == 0 {
		return fmt.Errorf("smoke: no headline metrics extracted")
	}
	fmt.Printf("paper-smoke: OK (%d cells, headlines: %d)\n", len(a.Cells), len(entry.Headlines))
	return nil
}
