package cache

import (
	"slices"
	"sort"
	"testing"
)

// refLRU is the plain reference model of a Cache: per set, the resident
// blocks with their last-use stamps and payloads. A full set evicts its
// least recently used block; which way a block sits in is not observable.
type refLRU struct {
	ways  int
	sets  []map[uint32]*refLine // set -> block number -> line
	clock uint64
	stats Stats
}

type refLine struct {
	lru       uint64
	data, aux uint32
}

func newRefLRU(cfg Config) *refLRU {
	r := &refLRU{ways: cfg.Ways, sets: make([]map[uint32]*refLine, cfg.Sets)}
	for i := range r.sets {
		r.sets[i] = map[uint32]*refLine{}
	}
	return r
}

func (r *refLRU) set(block uint32) map[uint32]*refLine { return r.sets[int(block)%len(r.sets)] }

// access mirrors Cache.Access on a block number.
func (r *refLRU) access(block uint32, lineShift uint) (*refLine, bool, Eviction) {
	r.stats.Accesses++
	r.clock++
	set := r.set(block)
	if l, ok := set[block]; ok {
		l.lru = r.clock
		r.stats.Hits++
		return l, true, Eviction{}
	}
	r.stats.Misses++
	var ev Eviction
	if len(set) == r.ways {
		var victim uint32
		var oldest *refLine
		for b, l := range set {
			if oldest == nil || l.lru < oldest.lru {
				victim, oldest = b, l
			}
		}
		delete(set, victim)
		r.stats.Evictions++
		ev = Eviction{Valid: true, Addr: victim << lineShift, Data: oldest.data, Aux: oldest.aux}
	}
	l := &refLine{lru: r.clock}
	set[block] = l
	return l, false, ev
}

// residentBlock is one resident block as {base address, Data, Aux}.
type residentBlock [3]uint32

func sortBlocks(bs []residentBlock) []residentBlock {
	sort.Slice(bs, func(i, j int) bool { return bs[i][0] < bs[j][0] })
	return bs
}

// resident lists every resident block by address.
func (r *refLRU) resident(lineShift uint) []residentBlock {
	var out []residentBlock
	for _, set := range r.sets {
		for b, l := range set {
			out = append(out, residentBlock{b << lineShift, l.data, l.aux})
		}
	}
	return sortBlocks(out)
}

// FuzzCacheLRU drives Access, Probe, Invalidate, Flush and ForEach on a
// 128-way fully associative cache and a 4-set 4-way one, and checks every
// result against the reference LRU: hit, payload, eviction, Stats and the
// resident set. Block numbers are a low part plus a multiple of 4096, which
// is a multiple of any way-hint table these geometries get, so blocks
// share hint slots (and, in the 4x4 cache, sets) while their tags differ.
func FuzzCacheLRU(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0x10, 0, 0x20, 1, 0x10, 2, 0, 0, 0x10, 3, 0, 4, 0})
	f.Add([]byte{1, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 0x41, 0, 0x81, 0, 0xc1, 0, 0x11, 1, 0x11, 2, 0x41, 0, 0x41})
	f.Add([]byte{1, 0, 0x10, 0, 0x20, 0, 0x30, 0, 0x40, 0, 0x10, 2, 0x10, 0, 0x10, 1, 0x50, 4, 1, 0, 0x10})
	// Stale hints: probe and access a block after invalidating it, and after
	// a flush.
	f.Add([]byte{0, 0, 0x10, 3, 0x10, 2, 0x10, 0, 0x10, 2, 0x10})
	f.Add([]byte{1, 0, 5, 0, 0x15, 5, 1, 2, 5, 2, 0x15, 0, 5})
	seed := []byte{0}
	for i := 0; i < 200; i++ {
		seed = append(seed, 0, byte(i*37))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		cfg := Config{Name: "fa128", Sets: 1, Ways: 128, LineSize: 64}
		if ops[0]&1 == 1 {
			cfg = Config{Name: "4x4", Sets: 4, Ways: 4, LineSize: 4}
		}
		c := MustNew(cfg)
		ref := newRefLRU(cfg)
		shift := c.lineShift
		for i := 1; i+1 < len(ops); i += 2 {
			op, sel := ops[i], ops[i+1]
			block := uint32(sel&0x0f) + uint32(sel>>4)<<12
			addr := block<<shift | uint32(i)&(cfg.LineSize-1)
			payload := uint32(i)<<8 | uint32(sel)
			switch op % 6 {
			case 0, 1: // Access, then install a payload on odd ops
				line, hit, ev := c.Access(addr)
				rl, rhit, rev := ref.access(block, shift)
				if hit != rhit || ev != rev {
					t.Fatalf("op %d Access(%#x): hit %v ev %+v, reference hit %v ev %+v", i, addr, hit, ev, rhit, rev)
				}
				if line.Data != rl.data || line.Aux != rl.aux {
					t.Fatalf("op %d Access(%#x): payload %#x/%#x, reference %#x/%#x", i, addr, line.Data, line.Aux, rl.data, rl.aux)
				}
				if op%2 == 1 {
					line.Data, line.Aux = payload, ^payload
					rl.data, rl.aux = payload, ^payload
				}
			case 2: // Probe, updating the payload through it as the TLB does
				line, ok := c.Probe(addr)
				rl, rok := ref.set(block)[block]
				if ok != rok {
					t.Fatalf("op %d Probe(%#x) = %v, reference %v", i, addr, ok, rok)
				}
				if ok {
					if line.Data != rl.data || line.Aux != rl.aux {
						t.Fatalf("op %d Probe(%#x): payload %#x/%#x, reference %#x/%#x", i, addr, line.Data, line.Aux, rl.data, rl.aux)
					}
					line.Data ^= 1
					rl.data ^= 1
				}
			case 3: // Invalidate
				ev, ok := c.Invalidate(addr)
				var rev Eviction
				rl, rok := ref.set(block)[block]
				if rok {
					rev = Eviction{Valid: true, Addr: block << shift, Data: rl.data, Aux: rl.aux}
					delete(ref.set(block), block)
				}
				if ok != rok || ev != rev {
					t.Fatalf("op %d Invalidate(%#x) = %+v %v, reference %+v %v", i, addr, ev, ok, rev, rok)
				}
			case 4: // ForEach, rewriting payloads as the CTC's clear-bit scan does
				var got []residentBlock
				c.ForEach(func(a uint32, l *Line) {
					got = append(got, residentBlock{a, l.Data, l.Aux})
					l.Aux++
				})
				if want := ref.resident(shift); !slices.Equal(sortBlocks(got), want) {
					t.Fatalf("op %d ForEach saw %v, reference %v", i, got, want)
				}
				for _, set := range ref.sets {
					for _, l := range set {
						l.aux++
					}
				}
			case 5: // Flush, every other time without a callback
				if sel&1 == 0 {
					var got []residentBlock
					c.Flush(func(ev Eviction) {
						got = append(got, residentBlock{ev.Addr, ev.Data, ev.Aux})
					})
					if want := ref.resident(shift); !slices.Equal(sortBlocks(got), want) {
						t.Fatalf("op %d Flush saw %v, reference %v", i, got, want)
					}
				} else {
					c.Flush(nil)
				}
				for s := range ref.sets {
					ref.sets[s] = map[uint32]*refLine{}
				}
			}
			if c.Stats() != ref.stats {
				t.Fatalf("op %d: stats %+v, reference %+v", i, c.Stats(), ref.stats)
			}
			n := 0
			for _, set := range ref.sets {
				n += len(set)
			}
			if c.ResidentBlocks() != n {
				t.Fatalf("op %d: %d resident blocks, reference %d", i, c.ResidentBlocks(), n)
			}
		}
	})
}
