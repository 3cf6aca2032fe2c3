package paperrun

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testGrid is the miniature grid the tests run: every cell kind, short
// streams, two repeats.
const testGrid = `{
  "name": "paperrun-test",
  "repeats": 2,
  "base_seed": 42,
  "events": 20000,
  "cells": [
    {
      "id": "backends",
      "kind": "backend",
      "backends": ["slatch"],
      "workloads": ["gcc"],
      "headline": "overhead"
    },
    {
      "id": "cplatch",
      "kind": "backend",
      "backends": ["cplatch"],
      "workloads": ["gcc"]
    },
    {
      "id": "sampling",
      "kind": "backend",
      "backends": ["slatch"],
      "workloads": ["apache"],
      "sample_fractions": [0.5, 1]
    },
    {
      "id": "ctc-geometry",
      "kind": "geometry",
      "axis": "ctc_entries",
      "values": [4, 16],
      "workloads": ["gcc"],
      "headline": "combined miss %"
    },
    {
      "id": "taint-tables",
      "kind": "experiment",
      "experiments": ["table1"],
      "workers": 2
    }
  ]
}
`

func executeTestGrid(t *testing.T, dir string) RunResult {
	t.Helper()
	raw := []byte(testGrid)
	g, _, err := LoadGrid(raw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), g, raw, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExecuteByteIdentical is the pipeline's determinism pin: two runs of
// the same grid must produce byte-identical csv/ trees — the wall-clock
// and machine facts are confined to manifest.json and logs/.
func TestExecuteByteIdentical(t *testing.T) {
	base := t.TempDir()
	a := filepath.Join(base, "a")
	b := filepath.Join(base, "b")
	ra := executeTestGrid(t, a)
	rb := executeTestGrid(t, b)
	if ra.Samples == 0 || ra.Samples != rb.Samples {
		t.Fatalf("sample counts differ or empty: %d vs %d", ra.Samples, rb.Samples)
	}
	g, _, _ := LoadGrid([]byte(testGrid))
	for _, c := range g.Cells {
		rel := filepath.Join("csv", c.ID+".csv")
		da, err := os.ReadFile(filepath.Join(a, rel))
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(filepath.Join(b, rel))
		if err != nil {
			t.Fatal(err)
		}
		if len(da) == 0 {
			t.Errorf("%s is empty", rel)
		}
		if !bytes.Equal(da, db) {
			t.Errorf("%s differs between identical runs", rel)
		}
	}
}

// TestRepeatsDiversify checks the other half of the contract: within one
// run, distinct repeats of the same variant sample genuinely different
// streams, so the dispersion statistics measure something real.
func TestRepeatsDiversify(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	executeTestGrid(t, dir)
	samples, err := readCellCSV(filepath.Join(dir, "csv", "backends.csv"))
	if err != nil {
		t.Fatal(err)
	}
	byRep := map[int]map[string]float64{}
	for _, s := range samples {
		if byRep[s.Repeat] == nil {
			byRep[s.Repeat] = map[string]float64{}
		}
		byRep[s.Repeat][s.Variant+"/"+s.Workload+"/"+s.Metric] = s.Value
	}
	if len(byRep) != 2 {
		t.Fatalf("expected 2 repeats, got %d", len(byRep))
	}
	same := true
	for k, v := range byRep[0] {
		if byRep[1][k] != v {
			same = false
		}
	}
	if same {
		t.Fatal("repeat 0 and repeat 1 produced identical metrics — repeats are not reseeded")
	}
}

// TestAnalyzeRoundTrip runs the analyzer over a finished tree and checks
// the rendered artifacts and the history tracker.
func TestAnalyzeRoundTrip(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "run")
	executeTestGrid(t, dir)
	history := filepath.Join(base, "BENCH_history.json")

	a, err := Analyze(dir, history)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != 5 {
		t.Fatalf("analyzed %d cells, want 5", len(a.Cells))
	}
	for _, ca := range a.Cells {
		if len(ca.Groups) == 0 {
			t.Errorf("cell %s has no series", ca.Cell)
		}
		for _, gr := range ca.Groups {
			if gr.Summary.N != 2 {
				t.Errorf("cell %s series %s/%s/%s has n=%d, want 2 repeats",
					ca.Cell, gr.Variant, gr.Workload, gr.Metric, gr.Summary.N)
			}
		}
	}

	md, err := os.ReadFile(filepath.Join(dir, "analysis", "summary.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| variant |", "95% CI", "Cell backends"} {
		if !strings.Contains(string(md), want) {
			t.Errorf("summary.md missing %q", want)
		}
	}
	tex, err := os.ReadFile(filepath.Join(dir, "analysis", "summary.tex"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`\begin{tabular}`, `\toprule`, `combined miss \%`} {
		if !strings.Contains(string(tex), want) {
			t.Errorf("summary.tex missing %q", want)
		}
	}

	// The analyzer must be standalone: a second analysis of the same tree
	// from nothing but the files on disk agrees with the first.
	b, err := LoadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a.Cells)
	bj, _ := json.Marshal(b.Cells)
	if !bytes.Equal(aj, bj) {
		t.Fatal("re-analysis of the same tree disagrees with the original")
	}

	// History: one entry per Analyze call, appended in order.
	var entries []HistoryEntry
	raw, err := os.ReadFile(history)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("history has %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.GridName != "paperrun-test" || e.GridSHA256 == "" || len(e.Headlines) == 0 {
		t.Fatalf("implausible history entry: %+v", e)
	}
	if _, ok := e.Headlines["backends/slatch"]; !ok {
		t.Errorf("missing backends/slatch headline, have %v", e.Headlines)
	}
	if _, ok := e.Headlines["ctc-geometry/hlatch/ctc_entries=4"]; !ok {
		t.Errorf("missing geometry headline, have %v", e.Headlines)
	}
	if _, err := Analyze(dir, history); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(history)
	entries = nil
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("history has %d entries after second analyze, want 2", len(entries))
	}
}

// TestLoadGridValidation rejects the failure modes a grid author actually
// hits, before any cell runs.
func TestLoadGridValidation(t *testing.T) {
	cases := []struct {
		name string
		grid string
		want string
	}{
		{"bad json", `{`, "parse grid"},
		{"no name", `{"repeats":1,"cells":[{"id":"x","kind":"backend","backends":["slatch"],"workloads":["gcc"]}]}`, "needs a name"},
		{"zero repeats", `{"name":"g","repeats":0,"cells":[{"id":"x","kind":"backend","backends":["slatch"],"workloads":["gcc"]}]}`, "repeats"},
		{"no cells", `{"name":"g","repeats":1,"cells":[]}`, "no cells"},
		{"dup id", `{"name":"g","repeats":1,"cells":[
			{"id":"x","kind":"backend","backends":["slatch"],"workloads":["gcc"]},
			{"id":"x","kind":"backend","backends":["slatch"],"workloads":["gcc"]}]}`, "duplicate"},
		{"bad kind", `{"name":"g","repeats":1,"cells":[{"id":"x","kind":"nope"}]}`, "unknown cell kind"},
		{"bad backend", `{"name":"g","repeats":1,"cells":[{"id":"x","kind":"backend","backends":["nope"],"workloads":["gcc"]}]}`, "unknown backend"},
		{"bad workload", `{"name":"g","repeats":1,"cells":[{"id":"x","kind":"backend","backends":["slatch"],"workloads":["nope"]}]}`, "unknown workload"},
		{"bad fraction", `{"name":"g","repeats":1,"cells":[{"id":"x","kind":"backend","backends":["slatch"],"workloads":["gcc"],"sample_fractions":[1.5]}]}`, "outside [0, 1]"},
		{"shards on unsharded backend", `{"name":"g","repeats":1,"cells":[{"id":"x","kind":"backend","backends":["slatch"],"workloads":["gcc"],"shards":[2]}]}`, `unknown field "shards"`},
		{"misspelled key", `{"name":"g","repeats":1,"cells":[{"id":"x","kind":"backend","backends":["slatch"],"workloads":["gcc"],"sample_fraction":[0.5]}]}`, `unknown field "sample_fraction"`},
		{"trailing data", `{"name":"g","repeats":1,"cells":[{"id":"x","kind":"backend","backends":["slatch"],"workloads":["gcc"]}]} {}`, "data after the grid"},
		{"bad axis", `{"name":"g","repeats":1,"cells":[{"id":"x","kind":"geometry","axis":"nope","values":[1],"workloads":["gcc"]}]}`, "unknown geometry axis"},
		{"bad experiment", `{"name":"g","repeats":1,"cells":[{"id":"x","kind":"experiment","experiments":["nope"]}]}`, "unknown id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := LoadGrid([]byte(tc.grid))
			if err == nil {
				t.Fatal("grid accepted, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	g, hash, err := LoadGrid([]byte(testGrid))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "paperrun-test" || len(hash) != 64 {
		t.Fatalf("good grid mis-loaded: %q / %q", g.Name, hash)
	}
}
