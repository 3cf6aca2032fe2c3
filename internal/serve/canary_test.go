package serve

import (
	"context"
	"errors"
	"testing"

	"latch"
)

// TestCanaryRecordsEachDivergingField: a served outcome that disagrees with
// the reference replay is recorded once per field that differs, with both
// sides' values; a served error the replay does not hit is recorded as the
// "error" field alone.
func TestCanaryRecordsEachDivergingField(t *testing.T) {
	prog, err := latch.Assemble("movi r1, 3\nsys 1")
	if err != nil {
		t.Fatal(err)
	}
	job := &programJob{prog: prog}
	c := newCanary(1)
	c.check(context.Background(), 7, job, latch.RunResult{ExitCode: 4, Steps: 1}, nil, []byte("x"))
	c.check(context.Background(), 8, job, latch.RunResult{ExitCode: 3, Steps: 2}, errors.New("served fault"), nil)
	want := []Divergence{
		{Job: 7, Field: "exit", Served: "4", Reference: "3"},
		{Job: 7, Field: "steps", Served: "1", Reference: "2"},
		{Job: 7, Field: "output", Served: `"x"`, Reference: `""`},
		{Job: 8, Field: "error", Served: "served fault", Reference: ""},
	}
	rep := c.report()
	if rep.Checked != 2 || len(rep.Divergences) != len(want) {
		t.Fatalf("report %+v, want 2 checks and %d divergences", rep, len(want))
	}
	for i, d := range rep.Divergences {
		if d != want[i] {
			t.Errorf("divergence %d = %+v, want %+v", i, d, want[i])
		}
	}
}
