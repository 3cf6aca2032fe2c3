package latch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"latch/internal/cache"
	"latch/internal/mem"
	"latch/internal/shadow"
)

// ctcLine is one resident CTC line as ForEach reports it.
type ctcLine struct {
	addr, data, aux uint32
}

func ctcContents(m *Module) []ctcLine {
	var out []ctcLine
	m.ctc.ForEach(func(addr uint32, l *cache.Line) { out = append(out, ctcLine{addr, l.Data, l.Aux}) })
	return out
}

// TestSetRangeMatchesPerByteSets is the oracle for the once-per-domain
// shadow.ByteWatcher contract onByteTransition relies on. Two modules get the
// same random writes, one through SetRange (one taint report per domain),
// the other as ascending single-byte Sets (one report per byte). The writes
// mix taint and clear, leave domains partly tainted with clear bits
// pending, cross page boundaries, and one wraps at 4 GiB. After every write
// the CTT words and page taint bits over the touched pages, the resident
// CTC lines with their clear bits, and the statistics must be identical,
// and so must the verdict of a check both modules then make.
func TestSetRangeMatchesPerByteSets(t *testing.T) {
	const region = 0x10000 // the random writes start here
	for _, policy := range []ClearPolicy{EagerClear, LazyClear} {
		for _, size := range []uint32{8, 64, 256} {
			t.Run(fmt.Sprintf("%s/%d", policy, size), func(t *testing.T) {
				build := func() (*Module, *shadow.Shadow) {
					cfg := DefaultConfig()
					cfg.Clear, cfg.DomainSize = policy, size
					sh := shadow.MustNew(size)
					return MustNew(cfg, sh), sh
				}
				ranged, rsh := build()
				bytewise, bsh := build()
				// The region spans 40 CTT words, more than the CTC holds, so
				// lines with pending clear bits get evicted and scanned.
				span := 40 * int(ranged.Config().WordCoverage())
				touched := map[uint32]bool{}
				rng := rand.New(rand.NewSource(int64(size)*10 + int64(policy)))

				write := func(step int, addr uint32, n int, tag shadow.Tag) {
					rsh.SetRange(addr, n, tag)
					for i := 0; i < n; i++ {
						bsh.Set(addr+uint32(i), tag)
					}
					for pn, last := mem.PageNumber(addr), mem.PageNumber(addr+uint32(n-1)); ; pn = (pn + 1) % mem.PageCount {
						touched[pn] = true
						if pn == last {
							break
						}
					}
					for pn := range touched {
						first := WordIndex(rsh.DomainIndex(pn << mem.PageShift))
						last := WordIndex(rsh.DomainIndex(pn<<mem.PageShift + mem.PageSize - 1))
						for w := first; w <= last; w++ {
							if a, b := ranged.CTT().Word(w), bytewise.CTT().Word(w); a != b {
								t.Fatalf("write %d (%#x+%d): CTT word %#x = %#x, per-byte %#x", step, addr, n, w, a, b)
							}
						}
						if a, b := ranged.PageTaintBits(pn), bytewise.PageTaintBits(pn); a != b {
							t.Fatalf("write %d (%#x+%d): page %#x taint bits %#x, per-byte %#x", step, addr, n, pn, a, b)
						}
					}
					if a, b := ctcContents(ranged), ctcContents(bytewise); !slices.Equal(a, b) {
						t.Fatalf("write %d (%#x+%d): CTC\n ranged   %x\n per-byte %x", step, addr, n, a, b)
					}
					if a, b := ranged.Stats(), bytewise.Stats(); a != b {
						t.Fatalf("write %d (%#x+%d): stats\n ranged   %+v\n per-byte %+v", step, addr, n, a, b)
					}
					// A check moves the CTC's LRU order and fills the TLB, so
					// any divergence there shows in later writes' statistics.
					probe := region + uint32(rng.Intn(span))
					if a, b := ranged.CheckMem(probe, 4), bytewise.CheckMem(probe, 4); a != b {
						t.Fatalf("write %d: CheckMem(%#x) = %+v, per-byte %+v", step, probe, a, b)
					}
				}

				// The wrapping span taints the last and first pages, and a later
				// write clears it across the wrap again.
				write(-1, 0xFFFFFF00, 0x200, shadow.MustLabel(3))
				for step := 0; step < 1500; step++ {
					addr := region + uint32(rng.Intn(span))
					n := 1 + rng.Intn(3*int(size))
					if rng.Intn(8) == 0 {
						n = 1 + rng.Intn(2*mem.PageSize) // crosses at least one page boundary often
					}
					tag := shadow.TagClean
					if rng.Intn(5) < 3 {
						tag = shadow.Tag(1 + rng.Intn(255))
					}
					write(step, addr, n, tag)
					if step == 750 {
						write(step, 0xFFFFFFF0, 0x40, shadow.TagClean)
					}
				}
				if st := ranged.Stats(); policy == LazyClear && st.ClearScans == 0 {
					t.Fatal("no clear-bit scan ran: the writes never evicted a pending clear")
				}
			})
		}
	}
}
