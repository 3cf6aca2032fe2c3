package experiments

import (
	"context"

	"fmt"

	"latch/internal/engine"
	"latch/internal/hlatch"
	"latch/internal/platch"
	"latch/internal/slatch"
	"latch/internal/stats"
	"latch/internal/workload"
)

// backendKey identifies one memoized registry pass.
type backendKey struct {
	backend string
	suite   workload.Suite
}

// BackendPass runs (or returns the memoized) registry pass: the named
// backend, in its paper-default configuration, over every benchmark of a
// suite, each benchmark one pool job. The pass name equals the backend
// name, so the derived per-job seeds — and therefore the golden tables —
// are identical to the historical per-scheme passes.
func (r *Runner) BackendPass(name string, s workload.Suite) ([]engine.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := backendKey{backend: name, suite: s}
	if res, ok := r.backends[key]; ok {
		return res, nil
	}
	sch, err := engine.Lookup(name)
	if err != nil {
		return nil, err
	}
	opts := engine.RunOptions{Events: r.opts.Events, Observer: r.passObserver(name), Policy: r.opts.Policy}
	names := workload.BySuite(s)
	out := make([]engine.Result, len(names))
	err = r.runJobs(name, names, func(i int, wname string, js *JobStat) error {
		p, err := r.jobProfile(name, wname)
		if err != nil {
			return err
		}
		res, err := engine.RunProfile(context.Background(), sch.New(), p, opts)
		if err != nil {
			return fmt.Errorf("%s %s: %w", name, wname, err)
		}
		js.Events, js.Checks = res.EventCount(), res.CheckCount()
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.backends[key] = out
	return out, nil
}

// typedPass narrows a registry pass to a scheme's concrete result type,
// for the tables that need scheme-specific fields.
func typedPass[T engine.Result](r *Runner, name string, s workload.Suite) ([]T, error) {
	key := backendKey{backend: name, suite: s}
	r.mu.Lock()
	if v, ok := r.typed[key]; ok {
		if ts, ok := v.([]T); ok {
			r.mu.Unlock()
			return ts, nil
		}
	}
	r.mu.Unlock()
	rs, err := r.BackendPass(name, s)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(rs))
	for i, br := range rs {
		t, ok := br.(T)
		if !ok {
			return nil, fmt.Errorf("experiments: backend %q returned %T, want %T", name, br, out[i])
		}
		out[i] = t
	}
	r.mu.Lock()
	r.typed[key] = out
	r.mu.Unlock()
	return out, nil
}

// HLatch runs (or returns the memoized) H-LATCH cache pass.
func (r *Runner) HLatch(s workload.Suite) ([]hlatch.Result, error) {
	return typedPass[hlatch.Result](r, "hlatch", s)
}

// SLatch runs (or returns the memoized) S-LATCH pass.
func (r *Runner) SLatch(s workload.Suite) ([]slatch.Result, error) {
	return typedPass[slatch.Result](r, "slatch", s)
}

// PLatch runs (or returns the memoized) P-LATCH pass.
func (r *Runner) PLatch(s workload.Suite) ([]platch.Result, error) {
	return typedPass[platch.Result](r, "platch", s)
}

// BackendTable renders the scheme-agnostic summary of one registered
// backend over both suites: the columns are whatever the backend's results
// report. A newly registered backend gets this table — and the CLI
// `-backend` path on top of it — without any change to this package.
func (r *Runner) BackendTable(name string) (*stats.Table, error) {
	sch, err := engine.Lookup(name)
	if err != nil {
		return nil, err
	}
	var t *stats.Table
	for _, s := range []workload.Suite{workload.SuiteSPEC, workload.SuiteNetwork} {
		res, err := r.BackendPass(name, s)
		if err != nil {
			return nil, err
		}
		for _, br := range res {
			if t == nil {
				header := []string{"benchmark", "events", "checks"}
				for _, c := range br.Columns() {
					header = append(header, c.Label)
				}
				t = stats.NewTable("Backend "+name+": "+sch.Title, header...)
			}
			row := []any{br.BenchmarkName(), br.EventCount(), br.CheckCount()}
			for _, c := range br.Columns() {
				row = append(row, c.Value)
			}
			t.AddRowf(row...)
		}
	}
	if t == nil {
		return nil, fmt.Errorf("experiments: backend %q produced no results", name)
	}
	return t, nil
}
