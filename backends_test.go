package latch

import "testing"

// TestValidateShards: every backend runs one monitor, so a request may name
// the monitor count as 0 (the default) or 1, and nothing else.
func TestValidateShards(t *testing.T) {
	for _, b := range Backends() {
		for _, n := range []int{0, 1} {
			if err := (RunRequest{Backend: b, Workload: "gcc", Shards: n}).Validate(); err != nil {
				t.Errorf("%s: Shards %d rejected: %v", b, n, err)
			}
		}
		for _, n := range []int{2, -1} {
			if err := (RunRequest{Backend: b, Workload: "gcc", Shards: n}).Validate(); err == nil {
				t.Errorf("%s: Shards %d accepted", b, n)
			}
		}
	}
}
