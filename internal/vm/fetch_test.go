package vm

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"latch/internal/isa"
)

// The fetch tests pin the unmapped-fetch fault: a jump into a page nothing
// ever mapped ends at its first fetch, in Step and in Run (whose fast loop
// takes the jump when it can), with the tracker attached or not.

// wildJumps are programs whose last instruction transfers control into a
// never-mapped page at target: a direct jmp, whose far offset leaves the
// image's page, and an indirect jr, which the fast loop hands to Step.
var wildJumps = []struct {
	name   string
	src    string
	target uint32
}{
	{"jmp", "movi r1, 5\njmp 30000", 2*isa.WordSize + 30000*isa.WordSize},
	{"jr", "li r1, 0x40000000\njr r1", 0x40000000},
}

// tlcLookups returns the memory translation cache's hits plus misses: the
// number of counted page lookups.
func tlcLookups(c *CPU) uint64 {
	h, m := c.Mem.TranslationCacheStats()
	return h + m
}

// runWild executes p on a fresh CPU through Run or a Step loop, after
// prepare (if any) has set up its memory, and returns the CPU, the counted
// lookups the execution itself made and the error that stopped it.
func runWild(t *testing.T, p *isa.Program, tracked, viaRun bool, prepare func(*CPU)) (*CPU, uint64, error) {
	t.Helper()
	c := New()
	if tracked {
		c.SetTracker(newDift())
	}
	c.Load(p)
	if prepare != nil {
		prepare(c)
	}
	before := tlcLookups(c)
	var err error
	if viaRun {
		_, err = c.Run(context.Background(), 1_000_000)
	} else {
		for i := 0; i < 1_000_000 && err == nil && !c.Halted(); i++ {
			err = c.Step()
		}
	}
	return c, tlcLookups(c) - before, err
}

func TestUnmappedFetchFaults(t *testing.T) {
	for _, w := range wildJumps {
		p := isa.MustAssemble(w.src)
		committed := uint64(len(p.Image) / isa.WordSize)
		for _, viaRun := range []bool{false, true} {
			for _, tracked := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/run=%v/tracked=%v", w.name, viaRun, tracked), func(t *testing.T) {
					c, lookups, err := runWild(t, p, tracked, viaRun, nil)
					var f Fault
					if !errors.As(err, &f) || f.Reason != ErrUnmappedFetch.Error() {
						t.Fatalf("err = %v, want the unmapped-fetch fault", err)
					}
					if f.PC != w.target || c.PC != w.target {
						t.Fatalf("fault pc = %#x, cpu pc = %#x, want the jump target %#x", f.PC, c.PC, w.target)
					}
					if c.Instret() != committed {
						t.Fatalf("instret = %d, want the %d instructions before the wild fetch", c.Instret(), committed)
					}
					if n := c.Mem.PagesAllocated(); n != 1 {
						t.Fatalf("%d pages mapped after the fault, want the image's 1", n)
					}
					if c.Mem.Mapped(w.target) {
						t.Fatal("the faulting fetch mapped its page")
					}
					// One counted lookup per image fetch, and exactly one for the
					// faulting fetch: the mapped test is uncounted and the fast
					// loop does not fetch a second time.
					if lookups != committed+1 {
						t.Fatalf("%d translation-cache lookups, want %d", lookups, committed+1)
					}
					// A mapped page holding an illegal word faults at the same
					// fetch after the same number of lookups.
					_, lookups2, err2 := runWild(t, p, tracked, viaRun, func(c *CPU) {
						c.Mem.StoreWord(w.target, 0xFF000000)
					})
					if !errors.As(err2, &f) || f.PC != w.target || f.Reason == ErrUnmappedFetch.Error() {
						t.Fatalf("mapped illegal word: err = %v", err2)
					}
					if lookups2 != lookups {
						t.Fatalf("mapped fetch made %d lookups, unmapped %d", lookups2, lookups)
					}
				})
			}
		}
	}
}

// TestZeroWordOnMappedPageIsNop: zero words on a mapped page run as nop,
// and so does a zero word that starts on an unmapped page and ends on a
// mapped one.
func TestZeroWordOnMappedPageIsNop(t *testing.T) {
	halt := isa.MustEncode(isa.Instr{Op: isa.HALT})
	for _, w := range wildJumps {
		p := isa.MustAssemble(w.src)
		committed := uint64(len(p.Image) / isa.WordSize)
		for _, viaRun := range []bool{false, true} {
			c, _, err := runWild(t, p, true, viaRun, func(c *CPU) {
				c.Mem.StoreWord(w.target, 0) // maps the page; the word stays zero
				c.Mem.StoreWord(w.target+2*isa.WordSize, halt)
			})
			if err != nil || !c.Halted() {
				t.Fatalf("%s (run=%v): err = %v, halted = %v", w.name, viaRun, err, c.Halted())
			}
			if c.Instret() != committed+3 {
				t.Fatalf("%s (run=%v): instret = %d, want %d (two nops, then halt)", w.name, viaRun, c.Instret(), committed+3)
			}
		}
	}

	// jr to 0x40000FFE: page 0x40000 is unmapped, but the word's last two
	// bytes lie on mapped page 0x40001, so it runs as nop, and so does
	// every zero word of that page. The first fetch wholly past it faults.
	p := isa.MustAssemble("li r1, 0x40000FFE\njr r1")
	for _, viaRun := range []bool{false, true} {
		c, _, err := runWild(t, p, true, viaRun, func(c *CPU) { c.Mem.StoreByte(0x40001800, 0) })
		var f Fault
		if !errors.As(err, &f) || f.Reason != ErrUnmappedFetch.Error() || f.PC != 0x40002002 {
			t.Fatalf("run=%v: err = %v, want the unmapped-fetch fault at 0x40002002", viaRun, err)
		}
		if want := uint64(len(p.Image)/isa.WordSize) + 1 + 1024; c.Instret() != want {
			t.Fatalf("run=%v: instret = %d, want %d", viaRun, c.Instret(), want)
		}
	}
}
