package latch

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"latch/internal/shadow"
)

// TaintStep is one step of a recorded layout materialization: the domains
// Mask marks in CTT word Word turned from clean to tainted, with no
// transition in another word between them.
type TaintStep struct {
	Word uint32
	Mask uint32
}

// ErrRecordedClear reports a recorded write that cleared taint: a bulk load
// applies only clean→tainted transitions.
var ErrRecordedClear = errors.New("latch: the recorded writes cleared taint")

// Recorder stands in for a shadow's domain watcher while a taint layout is
// written, so the coarse state the writes imply can be loaded into any
// number of modules at once (Module.LoadTaint) instead of through one
// watcher call per tainted domain per module. It merges consecutive
// clean→tainted transitions within one CTT word into one TaintStep. As the
// shadow's page watcher too, it takes each page the layout aliases as whole
// CTT words, the steps the domain watcher's reports would have merged into.
// Reset keeps its buffer, so a recorder that is reused allocates only to
// grow it.
type Recorder struct {
	steps   []TaintStep
	cleared bool
	watch   shadow.Watcher     // record, bound once
	page    shadow.PageWatcher // recordPage, bound once
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	r := &Recorder{}
	r.watch, r.page = r.record, r.recordPage
	return r
}

// Watcher returns the domain watcher to register on the shadow being
// written. The shadow's byte watcher must be unset meanwhile.
func (r *Recorder) Watcher() shadow.Watcher { return r.watch }

// PageWatcher returns the page watcher to register on the shadow being
// written beside Watcher's domain watcher, so each aliased page costs one
// call instead of one per tainted domain.
func (r *Recorder) PageWatcher() shadow.PageWatcher { return r.page }

func (r *Recorder) record(d uint32, tainted bool) {
	if !tainted {
		r.cleared = true
		return
	}
	r.add(WordIndex(d), 1<<bitOf(d))
}

// recordPage records the domains an aliased page turned tainted (see
// shadow.PageWatcher) a CTT word at a time, in the order the domain
// watcher would have reported them.
func (r *Recorder) recordPage(first, n, start uint32, tainted []uint64) {
	r.recordDomains(first, start, n, tainted)
	r.recordDomains(first, 0, start, tainted)
}

// recordDomains records the tainted domains among the page's domains lo to
// hi−1, ascending. A page of 32 or more domains starts a CTT word, so each
// word's share of the bitmap lies in one of its 64-bit words; a page of
// fewer lies in the first.
func (r *Recorder) recordDomains(first, lo, hi uint32, tainted []uint64) {
	for lo < hi {
		d := first + lo
		next := min(hi, lo+CTTWordBits-bitOf(d))
		if m := uint32(tainted[lo/64] >> (lo % 64) & (1<<(next-lo) - 1)); m != 0 {
			r.add(WordIndex(d), m<<bitOf(d))
		}
		lo = next
	}
}

// add records that the domains mask marks in CTT word w turned tainted,
// merged into the last step when that step is w's.
func (r *Recorder) add(w, mask uint32) {
	if n := len(r.steps); n > 0 && r.steps[n-1].Word == w {
		r.steps[n-1].Mask |= mask
		return
	}
	r.steps = append(r.steps, TaintStep{Word: w, Mask: mask})
}

// Reset empties the record, keeping its buffer.
func (r *Recorder) Reset() {
	r.steps = r.steps[:0]
	r.cleared = false
}

// Steps returns the steps recorded since the last Reset, valid until the
// next one, or ErrRecordedClear when a recorded transition cleared taint.
func (r *Recorder) Steps() ([]TaintStep, error) {
	if r.cleared {
		return nil, ErrRecordedClear
	}
	return r.steps, nil
}

// LoadTaint loads recorded steps into a module holding no coarse taint and
// no resident CTC or TLB line — a new one, or one after Reset — leaving the
// coarse state the module's own watchers would have built seeing each
// step's transitions in order: the CTT words, the page-domain counts (the
// TLB stays empty, as the watchers would leave it) and the CTC.
//
// The CTC is warmed exactly, not replayed: only the shortest suffix of
// steps holding min(CTCEntries, distinct words) words goes through the
// write path. Materialization only sets bits and starts from an empty CTC,
// so no fill evicts a line holding clear bits, every resident line's
// payload is its final CTT word, and the lines resident at the end, with
// their LRU order, are the last CTCEntries distinct words written, in the
// order of their last writes.
func (m *Module) LoadTaint(steps []TaintStep) error {
	if n := m.ctt.setBits; n != 0 {
		return fmt.Errorf("latch: loading taint into a module holding %d coarse-tainted domains; Reset it first", n)
	}
	if m.ctc.ResidentBlocks() != 0 || m.tlb.Resident() != 0 {
		return errors.New("latch: loading taint into a module with resident CTC or TLB lines; Reset it first")
	}
	// A CTT word's domains fall in one page domain, except where a word
	// covers more than a page (domains over 128 bytes): then each page
	// domain holds perPD of them.
	perPD := min(CTTWordBits, m.cfg.PageDomainSize()/m.cfg.DomainSize)
	for _, st := range steps {
		m.loadWord(st.Word, st.Mask, perPD)
	}
	for _, st := range steps[m.warmStart(steps):] {
		// The fill reads the loaded CTT word, which holds every step's bits.
		m.ctcWrite(m.Shadow.DomainBase(st.Word * CTTWordBits))
	}
	return nil
}

// loadWord sets mask's bits in CTT word w and counts the newly set ones in
// their page domains. A page domain turning tainted needs no TLB update:
// LoadTaint starts from an empty TLB, so there is no resident bit to set,
// and a later fill reads the count.
func (m *Module) loadWord(w, mask, perPD uint32) {
	if int(w) >= len(m.ctt.words) {
		m.ctt.grow(w)
	}
	old := m.ctt.words[w]
	add := mask &^ old
	if add == 0 {
		return
	}
	if old == 0 {
		m.ctt.nonzero++
	}
	m.ctt.words[w] = old | add
	m.ctt.setBits += bits.OnesCount32(add)
	chunk := ^uint32(0) >> (CTTWordBits - perPD)
	for lo := uint32(0); lo < CTTWordBits; lo += perPD {
		if n := bits.OnesCount32(add >> lo & chunk); n != 0 {
			m.pdAdd(m.Shadow.DomainBase(w*CTTWordBits+lo), uint32(n))
		}
	}
}

// warmStart returns where the shortest suffix of steps holding
// min(CTCEntries, distinct words) distinct words begins.
func (m *Module) warmStart(steps []TaintStep) int {
	seen := m.warm[:0]
	i := len(steps)
	for i > 0 && len(seen) < m.cfg.CTCEntries {
		i--
		if w := steps[i].Word; !slices.Contains(seen, w) {
			seen = append(seen, w)
		}
	}
	m.warm = seen
	return i
}
