package serve

import (
	"context"
	"fmt"
	"sync"

	"latch"
	"latch/internal/engine"
)

// Divergence records one disagreement between a served program run and the
// reference byte-precise DIFT stack — the in-service form of the
// differential check internal/diffcheck runs offline. Any entry here means
// the observational-equivalence claim (paper §4) was violated in
// production, which is exactly when an operator wants a preserved repro.
type Divergence struct {
	// Job is the server-assigned job ID the divergence was observed on.
	Job uint64 `json:"job"`
	// Field names what disagreed: "error", "exit", "steps", "violation",
	// or "output".
	Field string `json:"field"`
	// Served and Reference render the two sides' values.
	Served    string `json:"served"`
	Reference string `json:"reference"`
}

// canary shadow-runs a deterministic fraction of program jobs against
// engine.Reference and keeps the most recent divergences for /debug/canary.
// Selection is counter-based — every Nth program job — rather than random,
// so a given job sequence always canaries the same jobs and a divergence
// report is reproducible from the request log.
type canary struct {
	everyN int

	mu          sync.Mutex
	seq         uint64
	checked     uint64
	divergences []Divergence
	maxKept     int
}

func newCanary(everyN int) *canary {
	return &canary{everyN: everyN, maxKept: 64}
}

// admit reports whether the next program job should be shadow-run.
func (c *canary) admit() bool {
	if c == nil || c.everyN <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return c.seq%uint64(c.everyN) == 0
}

// check replays job's assembled program on a fresh reference stack and
// records every field that disagrees with the served outcome. The reference
// run is bounded by the same context as the served one.
func (c *canary) check(ctx context.Context, id uint64, job *programJob, served latch.RunResult, servedErr error, servedOut []byte) {
	ref, err := engine.NewReference(job.policy())
	if err != nil {
		c.record(Divergence{Job: id, Field: "error", Served: "-", Reference: fmt.Sprintf("reference construction: %v", err)})
		return
	}
	ref.Machine.Env.FileData = job.input()
	ref.Machine.Env.Requests = job.requestBytes()
	refRes, refErr := ref.RunProgram(ctx, job.prog, job.maxSteps())

	c.mu.Lock()
	c.checked++
	c.mu.Unlock()

	if errString(servedErr) != errString(refErr) {
		c.record(Divergence{Job: id, Field: "error", Served: errString(servedErr), Reference: errString(refErr)})
		return
	}
	if servedErr != nil {
		return // both failed identically; nothing more to compare
	}
	if served.ExitCode != refRes.ExitCode {
		c.record(Divergence{Job: id, Field: "exit",
			Served: fmt.Sprint(served.ExitCode), Reference: fmt.Sprint(refRes.ExitCode)})
	}
	if served.Steps != refRes.Steps {
		c.record(Divergence{Job: id, Field: "steps",
			Served: fmt.Sprint(served.Steps), Reference: fmt.Sprint(refRes.Steps)})
	}
	if violationString(served.Violation) != violationString(refRes.Violation) {
		c.record(Divergence{Job: id, Field: "violation",
			Served: violationString(served.Violation), Reference: violationString(refRes.Violation)})
	}
	if refOut := ref.Machine.Env.Output.String(); string(servedOut) != refOut {
		c.record(Divergence{Job: id, Field: "output",
			Served: fmt.Sprintf("%q", servedOut), Reference: fmt.Sprintf("%q", refOut)})
	}
}

func (c *canary) record(d Divergence) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.divergences = append(c.divergences, d)
	if len(c.divergences) > c.maxKept {
		c.divergences = c.divergences[len(c.divergences)-c.maxKept:]
	}
}

// Report is the /debug/canary payload.
type CanaryReport struct {
	// EveryN is the configured sampling divisor (0 = canary disabled).
	EveryN int `json:"every_n"`
	// Seen is the number of program jobs observed, Checked the number
	// shadow-run against the reference.
	Seen    uint64 `json:"seen"`
	Checked uint64 `json:"checked"`
	// Divergences are the most recent disagreements (empty is the healthy
	// state).
	Divergences []Divergence `json:"divergences"`
}

func (c *canary) report() CanaryReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	divs := make([]Divergence, len(c.divergences))
	copy(divs, c.divergences)
	return CanaryReport{EveryN: c.everyN, Seen: c.seq, Checked: c.checked, Divergences: divs}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func violationString(v *latch.Violation) string {
	if v == nil {
		return ""
	}
	return v.Error()
}
