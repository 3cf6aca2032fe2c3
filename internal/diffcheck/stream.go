package diffcheck

import (
	"context"

	"fmt"

	"latch/internal/engine"
	"latch/internal/latch"
	"latch/internal/shadow"
	"latch/internal/trace"
	"latch/internal/workload"
)

// The stream-side checks: generated programs exercise the program-driven
// path (cosim), but the backends mostly run over calibrated workload
// streams. These checks cover that path's two contracts — replayability
// (same seed, byte-identical run) and coarse soundness against the shadow
// state the generator mutates underneath the module.

// StreamDeterminism runs one backend over the named calibrated profile
// twice, on the same derived seed, and reports the first divergence between
// the replays: the whole-session Snapshot and every rendered result column
// must be identical. This is the replay contract minimized reproducers
// depend on.
func StreamDeterminism(backendName, profileName string, events uint64, seed int64) error {
	p, err := workload.Get(profileName)
	if err != nil {
		return err
	}
	p.Seed = workload.DeriveSeed(seed, "diffcheck", "stream", backendName, profileName)
	sch, err := engine.Lookup(backendName)
	if err != nil {
		return err
	}
	run := func() (engine.Snapshot, []string, error) {
		res, s, err := engine.RunProfileSession(context.Background(), sch.New(), p, engine.RunOptions{Events: events})
		if err != nil {
			return engine.Snapshot{}, nil, err
		}
		cols := make([]string, 0, 8)
		for _, c := range res.Columns() {
			cols = append(cols, fmt.Sprintf("%s=%v", c.Label, c.Value))
		}
		return s.Snapshot(), cols, nil
	}
	snap1, cols1, err := run()
	if err != nil {
		return err
	}
	snap2, cols2, err := run()
	if err != nil {
		return err
	}
	if snap1 != snap2 {
		return fmt.Errorf("diffcheck: %s/%s replay diverged: snapshot %+v vs %+v",
			backendName, profileName, snap1, snap2)
	}
	if len(cols1) != len(cols2) {
		return fmt.Errorf("diffcheck: %s/%s replay diverged: %d columns vs %d",
			backendName, profileName, len(cols1), len(cols2))
	}
	for i := range cols1 {
		if cols1[i] != cols2[i] {
			return fmt.Errorf("diffcheck: %s/%s replay diverged: column %q vs %q",
				backendName, profileName, cols1[i], cols2[i])
		}
	}
	return nil
}

// ModuleInvariant drives a calibrated generator stream against a module
// under the given clear policy and asserts coarse soundness on every memory
// event: an operand the byte-precise shadow state marks tainted must raise
// a coarse positive. Lazy mode additionally interleaves clear-bit scans, so
// the invariant is checked across scan boundaries too (§5.1.4).
func ModuleInvariant(pol latch.ClearPolicy, profileName string, events uint64, seed int64) error {
	p, err := workload.Get(profileName)
	if err != nil {
		return err
	}
	p.Seed = workload.DeriveSeed(seed, "diffcheck", "invariant", pol.String(), profileName)
	cfg := latch.DefaultConfig()
	cfg.Clear = pol
	sh, err := shadow.New(cfg.DomainSize)
	if err != nil {
		return err
	}
	m, err := latch.New(cfg, sh)
	if err != nil {
		return err
	}
	g, err := workload.NewGeneratorOn(p, sh)
	if err != nil {
		return err
	}
	var fail error
	var memEvents uint64
	g.Run(events, trace.SinkFunc(func(ev trace.Event) {
		if fail != nil || !ev.IsMem {
			return
		}
		memEvents++
		res := m.CheckMem(ev.Addr, int(ev.Size))
		if !res.CoarsePositive && sh.RangeTainted(ev.Addr, int(ev.Size)) {
			fail = fmt.Errorf("diffcheck: %s/%s event %d: tainted access %#x+%d missed by coarse check",
				pol, profileName, ev.Seq, ev.Addr, ev.Size)
			return
		}
		if pol == latch.LazyClear && memEvents%8192 == 0 {
			m.ScanResidentClears()
		}
	}))
	return fail
}
