// Package latch implements the core LATCH hardware module from the paper:
// the coarse taint representation (taint domains and the in-memory Coarse
// Taint Table), the tiny Coarse Taint Cache with its per-domain clear bits,
// the TLB page-level taint bits, and the multi-granular update and checking
// logic that ties them to the byte-precise shadow state (Figures 7, 8 and
// 12).
//
// The module supports the two synchronization disciplines the paper
// describes: the hardware AND-chain of H-LATCH, which keeps the coarse state
// exact on every taint update (§5.3.1), and the lazy clear-bit scheme of
// S-LATCH, in which coarse taint is only retired by explicit scans at mode
// switches and CTC evictions (§5.1.4). The lazy scheme's byte watcher
// (Module.onByteTransition) relies on shadow.ByteWatcher's contract that a
// write reports its taint assertions once per domain: repeats would only
// re-probe the CTC and rewrite the same bits.
//
// A module has one construction path, Module.Reconfigure, which New runs on
// an empty module. A module cleared by Reset reconfigures in place for any
// geometry, keeping the storage of its coarse tables: that is how an engine
// session is recycled across runs of different configurations.
// Reconfigure installs both shadow watchers, the domain watcher always and
// the byte watcher only under LazyClear.
//
// A module can also take a whole taint layout at once. A Recorder, standing
// in for the shadow's domain watcher while the layout is written, merges
// the writes' clean→tainted transitions into (CTT word, mask) steps, taking
// a page the layout aliases (shadow.Shadow.AliasPage) in one call, and
// Module.LoadTaint applies them to an empty module: the CTT words and
// page-domain counts one word at a time, and the CTC warmed with only the
// last CTCEntries words written. Writing a layout only sets bits, so the
// result is the state the watchers would have built, to the CTC's LRU
// order; one record serves every module that shares the layout.
package latch

import (
	"fmt"

	"latch/internal/cache"
	"latch/internal/mem"
	"latch/internal/shadow"
)

// ClearPolicy selects how the coarse state learns that a taint domain has
// been fully cleared.
type ClearPolicy int

// Clear policies.
const (
	// EagerClear models H-LATCH's hardware update chain (Figure 12): the
	// coarse bit is recomputed on every taint-tag write, so the CTT is
	// always exact.
	EagerClear ClearPolicy = iota
	// LazyClear models S-LATCH (§5.1.4): clears are recorded in CTC clear
	// bits and the CTT is only updated by a scan — at CTC eviction or when
	// the software layer returns control to hardware. Between scans the CTT
	// is conservatively stale (false positives only, never false negatives).
	LazyClear
	// NoClear never retires coarse taint: once a domain is marked it stays
	// marked. Still sound (false positives only), it is the ablation for
	// the clear-bit machinery — without it the coarse state grows
	// monotonically and false positives accumulate over the run.
	NoClear
)

// String names the policy.
func (p ClearPolicy) String() string {
	switch p {
	case EagerClear:
		return "eager"
	case LazyClear:
		return "lazy"
	case NoClear:
		return "none"
	}
	return fmt.Sprintf("clearpolicy(%d)", int(p))
}

// Config describes a LATCH module instance. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// DomainSize is the taint-domain granularity in bytes (power of two).
	DomainSize uint32
	// CTCEntries is the number of (fully associative) CTC entries, each
	// caching one 32-bit CTT word.
	CTCEntries int
	// TLBEntries is the number of TLB entries carrying page taint bits.
	TLBEntries int
	// TCache is the geometry of the precise taint cache (H-LATCH only).
	// Line size is in taint-tag bytes; with one tag byte per memory byte a
	// 4-byte line covers 4 bytes of memory.
	TCache cache.Config
	// BaselineTCache, when Enabled, shadows every check into an unfiltered
	// taint cache of the same geometry, producing the paper's
	// "without LATCH" comparison column in one pass.
	BaselineTCache bool
	// Clear selects the coarse-clear discipline.
	Clear ClearPolicy
	// CTCMissPenalty is the cycle cost of a CTC miss (the paper simulates
	// 150 cycles, §6.1).
	CTCMissPenalty uint64
	// AddressSpan is a sizing hint: the span of the address space, starting
	// at zero, that workloads are expected to touch. The module pre-sizes its
	// dense coarse-state tables (the CTT and the page-domain counters) to
	// cover it, so the hot path never grows them. Addresses beyond the span
	// remain fully supported — the tables grow on demand. Zero means no
	// pre-sizing.
	AddressSpan uint32
}

// CTTWordBits is the number of taint domains covered by one CTT word.
const CTTWordBits = 32

// DefaultCTCMissPenalty is the cycle cost of a CTC miss the paper
// simulates (150 cycles, §6.1). The engine-level cost table surfaces it
// alongside the other integration constants.
const DefaultCTCMissPenalty = 150

// DefaultConfig returns the configuration of the paper's main evaluation:
// 64-byte domains, a 16-entry fully associative CTC (64 B of tag payload),
// a 128-entry TLB with two page taint bits per 4 KiB page, and the 128-byte
// 4-way precise taint cache of §6.4.
func DefaultConfig() Config {
	return Config{
		DomainSize: shadow.DefaultDomainSize,
		CTCEntries: 16,
		TLBEntries: 128,
		TCache: cache.Config{
			Name:     "tcache",
			Sets:     8,
			Ways:     4,
			LineSize: 4,
		},
		BaselineTCache: true,
		Clear:          EagerClear,
		CTCMissPenalty: DefaultCTCMissPenalty,
		// The synthetic workloads place their footprints below 512 MiB.
		AddressSpan: 1 << 29,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.DomainSize < shadow.MinDomainSize || c.DomainSize > shadow.MaxDomainSize ||
		c.DomainSize&(c.DomainSize-1) != 0 {
		return fmt.Errorf("latch: invalid domain size %d", c.DomainSize)
	}
	if c.CTCEntries <= 0 {
		return fmt.Errorf("latch: CTC entries %d must be positive", c.CTCEntries)
	}
	if c.TLBEntries <= 0 || c.TLBEntries&(c.TLBEntries-1) != 0 {
		return fmt.Errorf("latch: TLB entries %d must be a positive power of two", c.TLBEntries)
	}
	if err := c.TCache.Validate(); err != nil {
		return fmt.Errorf("latch: %w", err)
	}
	return nil
}

// WordCoverage returns the memory bytes covered by one CTT word.
func (c Config) WordCoverage() uint32 { return CTTWordBits * c.DomainSize }

// PageDomains returns the number of page-level taint domains per page: one
// per CTT word of coverage, at least one (§4.2).
func (c Config) PageDomains() int {
	n := mem.PageSize / int(c.WordCoverage())
	if n < 1 {
		n = 1
	}
	return n
}

// PageDomainSize returns the bytes covered by one page-level taint domain.
func (c Config) PageDomainSize() uint32 {
	return mem.PageSize / uint32(c.PageDomains())
}

// CTCPayloadBytes returns the CTC tag-payload capacity the paper quotes
// ("64 bytes" for 16 entries of one 32-bit word each); clear bits double it
// in the S-LATCH configuration.
func (c Config) CTCPayloadBytes() int { return c.CTCEntries * 4 }
