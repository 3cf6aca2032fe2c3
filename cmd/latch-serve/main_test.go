package main

import (
	"strings"
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	ok := flagSet{
		Queue: 16, Deadline: time.Second, MaxDeadline: time.Minute,
		QuotaBurst: 1,
	}
	cases := []struct {
		name    string
		mutate  func(*flagSet)
		wantErr string
	}{
		{"defaults pass", func(*flagSet) {}, ""},
		{"negative workers", func(f *flagSet) { f.Workers = -1 }, "-workers"},
		{"zero queue", func(f *flagSet) { f.Queue = 0 }, "-queue"},
		{"zero deadline", func(f *flagSet) { f.Deadline = 0 }, "-deadline"},
		{"negative deadline", func(f *flagSet) { f.Deadline = -time.Second }, "-deadline"},
		{"zero max deadline", func(f *flagSet) { f.MaxDeadline = 0 }, "-max-deadline"},
		{"deadline above ceiling", func(f *flagSet) { f.Deadline = 2 * time.Minute }, "exceeds"},
		{"negative quota rate", func(f *flagSet) { f.QuotaRate = -1 }, "-quota-rate"},
		{"zero quota burst", func(f *flagSet) { f.QuotaBurst = 0 }, "-quota-burst"},
		{"negative canary", func(f *flagSet) { f.Canary = -1 }, "-canary"},
		{"odd domain size", func(f *flagSet) { f.DomainSize = 48 }, "power of two"},
		{"odd ctc entries", func(f *flagSet) { f.CTCEntries = 12 }, "power of two"},
		{"odd tlb entries", func(f *flagSet) { f.TLBEntries = 100 }, "power of two"},
		{"negative ctc entries", func(f *flagSet) { f.CTCEntries = -4 }, "power of two"},
		{"domain size below the shadow's range", func(f *flagSet) { f.DomainSize = 4 }, "invalid domain size 4"},
		{"domain size above the shadow's range", func(f *flagSet) { f.DomainSize = 8192 }, "invalid domain size 8192"},
		{"pow2 geometry passes", func(f *flagSet) { f.DomainSize = 128; f.CTCEntries = 32; f.TLBEntries = 256 }, ""},
		{"unknown backend", func(f *flagSet) { f.Backends = "slatch,bogus" }, "unknown backend"},
		{"known backends pass", func(f *flagSet) { f.Backends = "slatch,hlatch" }, ""},
		{"unknown pinned check", func(f *flagSet) { f.AllowPolicy = true; f.PinChecks = "taint-all" }, "unknown check"},
		{"min-sample out of range", func(f *flagSet) { f.AllowPolicy = true; f.MinSample = 1.5 }, "-min-sample"},
		{"pin-checks without allow-policy", func(f *flagSet) { f.PinChecks = "leak" }, "-allow-policy"},
		{"min-sample without allow-policy", func(f *flagSet) { f.MinSample = 0.5 }, "-allow-policy"},
		{"policy gate passes", func(f *flagSet) { f.AllowPolicy = true; f.PinChecks = "control-flow,leak"; f.MinSample = 0.1 }, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := ok
			c.mutate(&f)
			err := validateFlags(f)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

func TestPowerOfTwo(t *testing.T) {
	for n, want := range map[uint64]bool{1: true, 2: true, 64: true, 0: false, 3: false, 48: false} {
		if powerOfTwo(n) != want {
			t.Errorf("powerOfTwo(%d) = %v", n, !want)
		}
	}
}
