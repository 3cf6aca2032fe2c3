package main

import (
	"strings"
	"testing"
)

func TestCheckFlagConflicts(t *testing.T) {
	cases := []struct {
		name    string
		flags   flagSet
		wantErr string // substring of the error, empty for valid combinations
	}{
		{"empty", flagSet{}, ""},
		{"prog only", flagSet{Prog: "overflow"}, ""},
		{"src with file", flagSet{Src: "p.s", File: "data"}, ""},
		{"backend only", flagSet{Backend: "slatch"}, ""},
		{"slatch run", flagSet{Prog: "overflow", SLatch: true}, ""},
		{"no-dift run", flagSet{Prog: "overflow", NoDift: true}, ""},

		{"prog and src", flagSet{Prog: "overflow", Src: "p.s"}, "either -prog or -src"},
		{"file and file-hex", flagSet{Prog: "p", File: "a", FileHex: "41"}, "either -file or -file-hex"},
		{"slatch and no-dift", flagSet{Prog: "p", SLatch: true, NoDift: true}, "cannot be combined with -no-dift"},
		{"backend and prog", flagSet{Backend: "slatch", Prog: "overflow"}, "cannot be combined with -prog"},
		{"backend and src", flagSet{Backend: "slatch", Src: "p.s"}, "cannot be combined with -src"},
		{"backend and file", flagSet{Backend: "slatch", File: "data"}, "cannot be combined with -file"},
		{"backend and file-hex", flagSet{Backend: "slatch", FileHex: "41"}, "cannot be combined with -file-hex"},
		{"backend and request", flagSet{Backend: "slatch", Requests: 1}, "cannot be combined with -request"},
		{"backend and slatch", flagSet{Backend: "hlatch", SLatch: true}, "cannot be combined with -slatch"},
		{"backend and no-dift", flagSet{Backend: "hlatch", NoDift: true}, "cannot be combined with -no-dift"},
		{"backend and disasm", flagSet{Backend: "hlatch", Disasm: true}, "cannot be combined with -disasm"},
		{"backend and save-taint", flagSet{Backend: "hlatch", SaveTnt: "t.bin"}, "cannot be combined with -save-taint"},
		{"no-dift and save-taint", flagSet{Prog: "p", NoDift: true, SaveTnt: "t.bin"}, "cannot be combined with -no-dift"},

		{"sampled run", flagSet{Prog: "overflow", Sample: 0.5, Seed: 3}, ""},
		{"policy file run", flagSet{Prog: "overflow", Policy: "pol.json"}, ""},
		{"sampled backend", flagSet{Backend: "slatch", Sample: 0.5}, ""},
		{"no-dift and sample", flagSet{Prog: "p", NoDift: true, Sample: 0.5}, "cannot be combined with -no-dift"},
		{"no-dift and policy", flagSet{Prog: "p", NoDift: true, Policy: "pol.json"}, "cannot be combined with -no-dift"},
		{"seed without sampler", flagSet{Prog: "p", Seed: 3}, "needs a sampler"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The zero flagSet stands for the parsed defaults, where the
			// -sample sentinel is -1 (unset), not 0.
			if c.flags.Sample == 0 {
				c.flags.Sample = -1
			}
			err := checkFlagConflicts(c.flags)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}
