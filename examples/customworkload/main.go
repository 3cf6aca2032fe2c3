// Custom workload: the adoption path for characterizing your own
// application the way the paper characterized SPEC and the network apps.
// Define a profile (taint percentage, epoch structure, footprint, locality
// knobs), register it, and run it through the same H-LATCH / S-LATCH /
// P-LATCH machinery the paper's tables use.
package main

import (
	"fmt"
	"log"

	"latch/internal/hlatch"
	"latch/internal/platch"
	"latch/internal/slatch"
	"latch/internal/telemetry"
	"latch/internal/workload"
)

func main() {
	// An imaginary message broker: ~0.6% of instructions touch untrusted
	// payloads, bursts arrive between medium-length idle stretches, and
	// payload buffers sit in ~60 of 2000 pages.
	profile := workload.Profile{
		Name:        "message-broker",
		Suite:       workload.SuiteNetwork,
		TaintPct:    0.6,
		ActiveShare: 0.015,
		Epochs: []workload.EpochClass{
			{Len: 100_000, Share: 0.3},
			{Len: 10_000, Share: 0.5},
			{Len: 1_000, Share: 0.2},
		},
		PagesAccessed: 2000, PagesTainted: 60,
		RunLen: 64, GapLen: 192,
		MemFraction: 0.4, HotFraction: 0.9,
		CleanNearTaint: 0.002, BurstNearTaint: 0.1,
		NearTaintRandom: 0.1, JumpProb: 0.002,
		TaintReuse: 32, ChurnProb: 0.25,
		LibdftSlowdown: 6, CodeCacheLat: 1000,
		Seed: 7,
	}
	if err := workload.Register(profile); err != nil {
		log.Fatal(err)
	}

	const events = 1_500_000

	// One telemetry registry observes all three integrations; the summary
	// at the end aggregates everything the profile put through the module.
	metrics := telemetry.NewMetrics()

	hlCfg := hlatch.DefaultConfig()
	hlCfg.Events = events
	hlCfg.Observer = metrics
	hl, err := hlatch.Run(profile, hlCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- H-LATCH: how would the hardware integration behave? ---")
	fmt.Printf("combined miss rate %.4f%% (unfiltered taint cache: %.2f%%)\n",
		hl.CombinedMissPct, hl.BaselineMissPct)
	fmt.Printf("accesses resolved: TLB %.1f%%, CTC %.1f%%, t-cache %.1f%%\n",
		100*hl.ShareTLB, 100*hl.ShareCTC, 100*hl.SharePrecise)

	slCfg := slatch.DefaultConfig()
	slCfg.Events = events
	slCfg.Observer = metrics
	sl, err := slatch.Run(profile, slCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- S-LATCH: accelerated software DIFT on one core ---")
	fmt.Printf("overhead %.1f%% over native (continuous DIFT: %.0f%%), %.2fx speedup\n",
		100*sl.Overhead(), 100*sl.LibdftOverhead(), sl.SpeedupVsLibdft())
	fmt.Printf("%d mode switches, %d coarse false positives dismissed\n",
		sl.Switches, sl.FalsePositives)

	plCfg := platch.DefaultConfig()
	plCfg.Events = events
	plCfg.Observer = metrics
	pl, err := platch.Run(profile, plCfg)
	if err != nil {
		log.Fatal(err)
	}
	unfiltered, _ := platch.BaselineQueueOverhead(pl.Events, plCfg)
	fmt.Println("\n--- P-LATCH: filtered two-core monitoring ---")
	fmt.Printf("active windows %.1f%%, overhead %.1f%% (unfiltered LBA: %.0f%%)\n",
		100*pl.ActiveWindowFraction, 100*pl.OverheadSimple, 100*unfiltered)
	fmt.Printf("log carries %.2f%% of instructions\n", 100*pl.EnqueuedFraction)

	s := metrics.Snapshot()
	fmt.Println("\n--- telemetry: one registry across all three integrations ---")
	fmt.Printf("coarse checks %d: %.1f%% TLB, %.1f%% CTC, %.1f%% precise\n",
		s.CoarseChecks,
		100*float64(s.ResolvedTLB)/float64(s.CoarseChecks),
		100*float64(s.ResolvedCTC)/float64(s.CoarseChecks),
		100*float64(s.ResolvedPrecise)/float64(s.CoarseChecks))
	fmt.Printf("%d CTC evictions (%d with pending clears), %d epoch transitions, %d queue stalls\n",
		s.CTCEvictions, s.CTCEvictionsPendingClear, s.SwitchesToSoftware, s.QueueStalls)
}
