package enginetest

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"latch/internal/engine"
	"latch/internal/latch"
	"latch/internal/workload"
)

// withGeometry runs a registered backend's policy under another module
// geometry.
type withGeometry struct {
	engine.Backend
	cfg latch.Config
}

func (b withGeometry) Config() latch.Config { return b.cfg }

// TestRecycleAcrossGeometries carries one session per registered backend
// through domain sizes 8 → 256 → 64 B, CTC sizes 2 → 64 entries with a new
// miss penalty, the clear policies lazy → eager → none → lazy, and the
// baseline taint cache toggled and back, recycling it for each run of gcc,
// sphinx3 and apache. Every run's rendered result and Snapshot must equal
// those of the same run on a fresh NewSession.
func TestRecycleAcrossGeometries(t *testing.T) {
	steps := []struct {
		name string
		set  func(*latch.Config)
	}{
		{"8 B domains", func(c *latch.Config) { c.DomainSize = 8 }},
		{"256 B domains", func(c *latch.Config) { c.DomainSize = 256 }},
		{"64 B domains, 2 CTC entries", func(c *latch.Config) { c.DomainSize = 64; c.CTCEntries = 2 }},
		{"64 CTC entries, miss penalty 40", func(c *latch.Config) { c.CTCEntries = 64; c.CTCMissPenalty = 40 }},
		{"lazy clear", func(c *latch.Config) { c.Clear = latch.LazyClear }},
		{"eager clear", func(c *latch.Config) { c.Clear = latch.EagerClear }},
		{"no clear", func(c *latch.Config) { c.Clear = latch.NoClear }},
		{"lazy clear, baseline toggled", func(c *latch.Config) { c.Clear = latch.LazyClear; c.BaselineTCache = !c.BaselineTCache }},
		{"baseline toggled back", func(c *latch.Config) { c.BaselineTCache = !c.BaselineTCache }},
	}
	profiles := []string{"gcc", "sphinx3", "apache"}
	const events = 20_000
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			sch, err := engine.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sch.New().Config()
			s, err := engine.NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range steps {
				step.set(&cfg)
				for _, pname := range profiles {
					p := workload.MustGet(pname)
					if err := s.Recycle(cfg); err != nil {
						t.Fatalf("%s: %v", step.name, err)
					}
					got := render(runOn(t, s, withGeometry{sch.New(), cfg}, p, events))
					fresh, err := engine.NewSession(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want := render(runOn(t, fresh, withGeometry{sch.New(), cfg}, p, events))
					if got != want {
						t.Fatalf("%s, %s: recycled result diverged:\nfresh    %s\nrecycled %s", step.name, pname, want, got)
					}
					if s.Snapshot() != fresh.Snapshot() {
						t.Fatalf("%s, %s: recycled session diverged:\nfresh    %+v\nrecycled %+v",
							step.name, pname, fresh.Snapshot(), s.Snapshot())
					}
				}
			}
		})
	}
}

// TestRunProfileConcurrent runs the four backends over gcc and mysql through
// RunProfile from four goroutines at once, each in its own order, so runs
// take, recycle and return idle sessions concurrently. Every result must
// equal the serial run's.
func TestRunProfileConcurrent(t *testing.T) {
	type job struct{ backend, profile string }
	var jobs []job
	for _, b := range []string{"slatch", "hlatch", "platch", "cplatch"} {
		for _, p := range []string{"gcc", "mysql"} {
			jobs = append(jobs, job{b, p})
		}
	}
	run := func(j job) (engine.Result, error) {
		sch, err := engine.Lookup(j.backend)
		if err != nil {
			return nil, err
		}
		res, err := engine.RunProfile(context.Background(), sch.New(), workload.MustGet(j.profile), engine.RunOptions{Events: 50_000})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", j.backend, j.profile, err)
		}
		return withoutRing(res), nil
	}
	serial := make([]engine.Result, len(jobs))
	for i, j := range jobs {
		res, err := run(j)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	const workers = 4
	errs := make(chan error, workers*len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				i := (k + 2*w) % len(jobs)
				res, err := run(jobs[i])
				if err == nil && !reflect.DeepEqual(res, serial[i]) {
					err = fmt.Errorf("%s/%s on goroutine %d diverged from the serial run:\nconcurrent %+v\nserial     %+v",
						jobs[i].backend, jobs[i].profile, w, res, serial[i])
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
