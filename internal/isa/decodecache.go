package isa

// DecodeCache is a direct-mapped cache of decoded instructions keyed by PC —
// the simulation analog of a DBT system's code cache (the role Pin's code
// cache plays under the paper's software DIFT layer). A hit returns the
// decoded Instr without re-fetching or re-decoding the instruction word; the
// owner is responsible for invalidating entries when memory holding cached
// code is written.
//
// Beyond single decodes, the cache builds superinstructions: when two
// adjacent PCs hold a fusible pair (see Fusible), the first PC's entry gains
// a copy of its successor and a FuseKind, letting the interpreter's fast
// loop execute both in one dispatch. The fused copy is valid as long as the
// underlying instruction words are — InvalidateRange treats a fused entry as
// covering both words, so a store over either half drops it.
//
// The zero value is not usable; call NewDecodeCache.
type DecodeCache struct {
	entries []DecodeEntry
	mask    uint32
	hits    uint64
	misses  uint64
	fusions uint64
}

// DecodeEntry is one direct-mapped slot: the decode, its PC tag, and — for
// superinstructions — a copy of the fused successor. Packing the slot into
// one struct keeps a lookup to a single bounds check and (at 24 bytes) a
// single cache line.
type DecodeEntry struct {
	In    Instr
	Next  Instr // fused successor decode; valid when Fuse != FuseNone
	pc    uint32
	Fuse  FuseKind
	valid bool
	// Aux is a caller-owned classification byte, reset to zero on Insert.
	// The interpreter stores its fast-loop kind here so dispatch reads one
	// precomputed byte from the already-resident slot.
	Aux uint8
}

// FuseKind classifies a fused superinstruction: a pair of adjacent decoded
// instructions the interpreter may execute in one dispatch. Fusion never
// changes semantics — the pair still executes sequentially — it only
// eliminates the second fetch/dispatch.
type FuseKind uint8

// Fusion kinds. The idioms are the common LA32 pairs the workload programs
// emit: immediate-feeds-ALU sequences (movi+add), compare+branch, and the
// load+compare half of load+compare+branch loops.
const (
	FuseNone FuseKind = iota
	// FuseALUALU: two register-only instructions (moves, immediates, ALU
	// ops) — the movi+add idiom and friends.
	FuseALUALU
	// FuseALUBranch: a register-only instruction followed by a conditional
	// branch — the compare+branch idiom.
	FuseALUBranch
	// FuseLoadALU: a load followed by a register-only instruction — the
	// load+compare prefix of load+compare+branch loops.
	FuseLoadALU
)

// regOnly reports whether op reads and writes only registers: no memory
// operand, no control transfer, no syscall, no taint-state side channel.
func regOnly(op Op) bool {
	switch op.Class() {
	case ClassNop, ClassMove, ClassImm, ClassALU2, ClassALUImm:
		return true
	}
	return false
}

// Fusible classifies the superinstruction kind of an adjacent (first,
// second) instruction pair, or FuseNone when the pair is not fused. Only the
// first slot may reference memory (as a load), and the second slot never
// transfers control except as a conditional branch — so a fused pair needs
// no mid-pair eligibility re-check: the first instruction cannot redirect
// the PC away from the second.
func Fusible(first, second Instr) FuseKind {
	switch {
	case regOnly(first.Op) && regOnly(second.Op):
		return FuseALUALU
	case regOnly(first.Op) && second.Op.Class() == ClassBranch:
		return FuseALUBranch
	case first.Op.Class() == ClassLoad && regOnly(second.Op):
		return FuseLoadALU
	}
	return FuseNone
}

// DefaultDecodeCacheEntries is the default capacity: 4096 entries cover a
// 16 KiB code footprint with zero conflict misses.
const DefaultDecodeCacheEntries = 4096

// NewDecodeCache returns a cache with at least the given number of entries
// (rounded up to a power of two; minimum 16).
func NewDecodeCache(entries int) *DecodeCache {
	n := 16
	for n < entries {
		n *= 2
	}
	return &DecodeCache{
		entries: make([]DecodeEntry, n),
		mask:    uint32(n - 1),
	}
}

// index returns the direct-mapped slot of pc. Instructions are word-sized,
// so the low two PC bits are dropped before indexing.
func (c *DecodeCache) index(pc uint32) uint32 { return (pc >> 2) & c.mask }

// Lookup returns the cached decode of the instruction at pc.
func (c *DecodeCache) Lookup(pc uint32) (Instr, bool) {
	e := &c.entries[c.index(pc)]
	if e.valid && e.pc == pc {
		c.hits++
		return e.In, true
	}
	c.misses++
	return Instr{}, false
}

// LookupFused returns the slot holding the cached decode at pc plus, for
// fused entries, a copy of the successor instruction at pc+WordSize and the
// fusion kind. The pointer is into the cache's slot array and is invalidated
// by the next Insert/TryFuse/InvalidateRange; callers must not retain it.
func (c *DecodeCache) LookupFused(pc uint32) (e *DecodeEntry, ok bool) {
	e = &c.entries[c.index(pc)]
	if e.valid && e.pc == pc {
		c.hits++
		return e, true
	}
	c.misses++
	return nil, false
}

// PeekFused is LookupFused without statistics accounting, for dispatch loops
// that batch their own hit/miss counts through AddStats.
func (c *DecodeCache) PeekFused(pc uint32) (e *DecodeEntry, ok bool) {
	e = &c.entries[c.index(pc)]
	if e.valid && e.pc == pc {
		return e, true
	}
	return nil, false
}

// DecodeProbe is a dispatch-loop snapshot of the cache's slot array: holding
// the slice and mask in the caller's frame lets a tight loop keep them in
// registers, where probing through the *DecodeCache would reload them on
// every iteration (stores through other pointers may alias the cache). The
// snapshot observes Insert/TryFuse/Invalidate mutations (the array is shared
// and never reallocated); statistics must be batched via AddStats.
type DecodeProbe struct {
	entries []DecodeEntry
	mask    uint32
}

// Probe returns a snapshot probe over the cache's slots.
func (c *DecodeCache) Probe() DecodeProbe {
	return DecodeProbe{entries: c.entries, mask: c.mask}
}

// At returns the slot holding a valid decode of pc, or ok=false.
func (p DecodeProbe) At(pc uint32) (e *DecodeEntry, ok bool) {
	e = &p.entries[(pc>>2)&p.mask]
	if e.valid && e.pc == pc {
		return e, true
	}
	return nil, false
}

// AddStats credits hit and miss counts accumulated externally by PeekFused
// callers.
func (c *DecodeCache) AddStats(hits, misses uint64) {
	c.hits += hits
	c.misses += misses
}

// Insert caches the decode of the instruction at pc, displacing whatever
// occupied its slot (including any superinstruction built on it). It returns
// the slot so the owner can stamp its Aux classification.
func (c *DecodeCache) Insert(pc uint32, in Instr) *DecodeEntry {
	e := &c.entries[c.index(pc)]
	e.In = in
	e.pc = pc
	e.valid = true
	e.Fuse = FuseNone
	e.Aux = 0
	return e
}

// TryFuse attempts to build a superinstruction at pc: when the cache holds
// valid decodes of both pc and pc+WordSize and the pair matches a fusible
// idiom, the entry at pc gains a copy of its successor. The copy stays
// correct across conflict displacement of the successor's slot — it mirrors
// the instruction *word* at pc+WordSize, which only stores change, and
// InvalidateRange drops fused entries for writes over either word.
func (c *DecodeCache) TryFuse(pc uint32) FuseKind {
	e := &c.entries[c.index(pc)]
	if !e.valid || e.pc != pc || e.Fuse != FuseNone {
		if e.valid && e.pc == pc {
			return e.Fuse
		}
		return FuseNone
	}
	succ := pc + WordSize
	s := &c.entries[c.index(succ)]
	if !s.valid || s.pc != succ {
		return FuseNone
	}
	k := Fusible(e.In, s.In)
	if k != FuseNone {
		e.Fuse = k
		e.Next = s.In
		c.fusions++
	}
	return k
}

// InvalidateRange drops every cached instruction overlapping the byte range
// [lo, hi]. An entry for pc covers bytes [pc, pc+WordSize) — or twice that
// when it carries a fused successor — so any write into that window
// invalidates it. Bounds are inclusive to allow hi = 0xFFFFFFFF.
func (c *DecodeCache) InvalidateRange(lo, hi uint32) {
	if hi < lo {
		return
	}
	// An instruction starting up to 2*WordSize-1 bytes before lo can still
	// overlap the range (a fused entry spans two words). Unaligned PCs are
	// permitted, so every byte position is a candidate start.
	const maxSpan = 2 * WordSize
	start := uint64(lo) - (maxSpan - 1)
	if lo < maxSpan-1 {
		start = 0
	}
	if uint64(hi)-start+1 >= uint64(len(c.entries)) {
		// More candidate PCs than slots: cheaper to drop everything.
		c.Flush()
		return
	}
	for p := start; p <= uint64(hi); p++ {
		pc := uint32(p)
		e := &c.entries[c.index(pc)]
		if !e.valid || e.pc != pc {
			continue
		}
		span := uint32(WordSize)
		if e.Fuse != FuseNone {
			span = maxSpan
		}
		// Overlap test: pc <= hi holds by loop bounds; the entry overlaps
		// when its span reaches lo.
		if pc >= lo || lo-pc < span {
			e.valid = false
		}
	}
}

// Flush empties the cache, keeping statistics.
func (c *DecodeCache) Flush() {
	for i := range c.entries {
		c.entries[i].valid = false
	}
}

// Reset empties the cache and zeroes every counter, fusions included: the
// NewDecodeCache state, without reallocating the slots.
func (c *DecodeCache) Reset() {
	c.Flush()
	c.hits, c.misses, c.fusions = 0, 0, 0
}

// Stats returns the hit and miss counts since creation (or ResetStats).
func (c *DecodeCache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Fusions returns the number of superinstructions built since creation.
func (c *DecodeCache) Fusions() uint64 { return c.fusions }

// ResetStats zeroes the counters without touching contents.
func (c *DecodeCache) ResetStats() { c.hits, c.misses = 0, 0 }

// Entries returns the cache capacity.
func (c *DecodeCache) Entries() int { return len(c.entries) }
