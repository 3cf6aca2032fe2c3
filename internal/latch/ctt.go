package latch

import "math/bits"

// CTT is the Coarse Taint Table: the in-memory structure holding one taint
// bit per taint domain, packed 32 domains to a word (§4.1). Word w covers
// domains [32w, 32w+32).
//
// The table is a dense slice indexed directly by word index — the software
// analog of the paper's flat in-memory table that hardware walks with one
// load — grown geometrically on demand. Occupancy statistics (nonzero words,
// set bits) are maintained incrementally so they stay O(1) to read.
type CTT struct {
	words   []uint32
	nonzero int // words holding at least one set bit
	setBits int // total set bits
}

// NewCTT returns an empty table.
func NewCTT() *CTT { return &CTT{} }

// WordIndex returns the CTT word index holding the bit for domain d.
func WordIndex(d uint32) uint32 { return d / CTTWordBits }

// bitOf returns the bit position of domain d within its word.
func bitOf(d uint32) uint32 { return d % CTTWordBits }

// grow extends the table to cover word index w, at least doubling so growth
// is amortized O(1).
func (t *CTT) grow(w uint32) {
	n := len(t.words) * 2
	if n < 64 {
		n = 64
	}
	for n <= int(w) {
		n *= 2
	}
	nw := make([]uint32, n)
	copy(nw, t.words)
	t.words = nw
}

// Word returns the 32-domain bit vector of word w.
func (t *CTT) Word(w uint32) uint32 {
	if int(w) >= len(t.words) {
		return 0
	}
	return t.words[w]
}

// Bit reports whether domain d is marked tainted.
func (t *CTT) Bit(d uint32) bool {
	w := WordIndex(d)
	if int(w) >= len(t.words) {
		return false
	}
	return t.words[w]&(1<<bitOf(d)) != 0
}

// SetBit marks domain d and reports whether the bit changed.
func (t *CTT) SetBit(d uint32) bool {
	w := WordIndex(d)
	if int(w) >= len(t.words) {
		t.grow(w)
	}
	old := t.words[w]
	nw := old | 1<<bitOf(d)
	if nw == old {
		return false
	}
	if old == 0 {
		t.nonzero++
	}
	t.words[w] = nw
	t.setBits++
	return true
}

// ClearBit unmarks domain d and reports whether the bit changed.
func (t *CTT) ClearBit(d uint32) bool {
	w := WordIndex(d)
	if int(w) >= len(t.words) {
		return false
	}
	old := t.words[w]
	nw := old &^ (1 << bitOf(d))
	if nw == old {
		return false
	}
	t.words[w] = nw
	t.setBits--
	if nw == 0 {
		t.nonzero--
	}
	return true
}

// WordsAllocated returns the number of nonzero words — the CTT's effective
// occupancy, which the paper notes stays small because of the high
// compression of coarse tags.
func (t *CTT) WordsAllocated() int { return t.nonzero }

// TaintedDomains returns the total number of set bits.
func (t *CTT) TaintedDomains() int { return t.setBits }

// WordIndices returns the sorted indices of nonzero words.
func (t *CTT) WordIndices() []uint32 {
	out := make([]uint32, 0, t.nonzero)
	for w, v := range t.words {
		if v != 0 {
			out = append(out, uint32(w))
		}
	}
	return out
}

// clearWords zeroes words lo through hi (clipped to the table), keeping the
// occupancy counts exact.
func (t *CTT) clearWords(lo, hi uint32) {
	for w := int(lo); w <= int(hi) && w < len(t.words); w++ {
		if v := t.words[w]; v != 0 {
			t.words[w] = 0
			t.setBits -= bits.OnesCount32(v)
			t.nonzero--
		}
	}
}
