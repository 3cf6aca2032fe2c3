package isa

// DecodeCache is a direct-mapped cache of decoded instructions keyed by PC —
// the simulation analog of a DBT system's code cache (the role Pin's code
// cache plays under the paper's software DIFT layer). A hit returns the
// decoded Instr without re-fetching or re-decoding the instruction word; the
// owner is responsible for invalidating entries when memory holding cached
// code is written. Each slot holds one instruction.
//
// The zero value is not usable; call NewDecodeCache.
type DecodeCache struct {
	entries []DecodeEntry
	mask    uint32
	hits    uint64
	misses  uint64
}

// DecodeEntry is one direct-mapped slot: the decode and its PC tag. Packing
// the slot into one struct keeps a lookup to a single bounds check and (at
// 16 bytes) a single cache line.
type DecodeEntry struct {
	In    Instr
	pc    uint32
	valid bool
	// Aux and Reads are caller-owned stamps, reset to zero on Insert; they
	// fill the slot's padding. The interpreter stores the instruction's
	// fast-loop kind in Aux and its register read set (bit r for register
	// r) in Reads, so dispatch reads both from the already-resident slot.
	Aux   uint8
	Reads uint16
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

// DecodeProbe is a dispatch-loop snapshot of the cache's slot array: holding
// the slice and mask in the caller's frame lets a tight loop keep them in
// registers, where probing through the *DecodeCache would reload them on
// every iteration (stores through other pointers may alias the cache). The
// snapshot observes Insert/Invalidate mutations (the array is shared and
// never reallocated); statistics must be batched via AddStats.
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

// AddStats credits hit and miss counts accumulated externally by Probe
// callers.
func (c *DecodeCache) AddStats(hits, misses uint64) {
	c.hits += hits
	c.misses += misses
}

// Insert caches the decode of the instruction at pc, displacing whatever
// occupied its slot. It returns the slot so the owner can stamp its Aux and
// Reads.
func (c *DecodeCache) Insert(pc uint32, in Instr) *DecodeEntry {
	e := &c.entries[c.index(pc)]
	*e = DecodeEntry{In: in, pc: pc, valid: true}
	return e
}

// InvalidateRange drops every cached instruction overlapping the byte range
// [lo, hi]. An entry for pc covers bytes [pc, pc+WordSize), so any write
// into that window invalidates it. Bounds are inclusive to allow
// hi = 0xFFFFFFFF.
func (c *DecodeCache) InvalidateRange(lo, hi uint32) {
	if hi < lo {
		return
	}
	// An instruction starting up to WordSize-1 bytes before lo can still
	// overlap the range. Unaligned PCs are permitted, so every byte position
	// is a candidate start.
	start := uint64(lo) - (WordSize - 1)
	if lo < WordSize-1 {
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
		// Every candidate overlaps: pc <= hi by the loop bounds, and
		// pc > lo-WordSize by the choice of start.
		if e.valid && e.pc == pc {
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

// Reset empties the cache and zeroes its counters: the NewDecodeCache
// state, without reallocating the slots.
func (c *DecodeCache) Reset() {
	c.Flush()
	c.ResetStats()
}

// Stats returns the hit and miss counts since creation (or ResetStats).
func (c *DecodeCache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// ResetStats zeroes the counters without touching contents.
func (c *DecodeCache) ResetStats() { c.hits, c.misses = 0, 0 }
