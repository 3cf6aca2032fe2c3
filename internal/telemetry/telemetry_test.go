package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()

	m.CoarseCheck(LevelTLB, false, false)
	m.CoarseCheck(LevelCTC, false, false)
	m.CoarseCheck(LevelPrecise, true, true)
	m.CoarseCheck(LevelPrecise, true, false)
	m.CoarseCheck(NumLevels+2, false, false) // counted as a check, resolved at no level

	m.CacheMiss(CacheTLB)
	m.CacheMiss(CacheCTC)
	m.CacheMiss(CacheCTC)
	m.CacheMiss(CacheTCache)

	m.CacheEviction(CacheCTC, false)
	m.CacheEviction(CacheCTC, true)

	m.EpochTransition(ModeSoftware, 100)
	m.EpochTransition(ModeHardware, 200)
	m.EpochTransition(ModeSoftware, 300)

	m.QueueStall(5)
	m.QueueStall(9)
	m.QueueStall(2)

	m.Violation(ViolationControlFlow, 0x10, 0x20)
	m.Violation(ViolationLeak, 0x30, 0x40)

	m.TaintSource(SourceFile, 16)
	m.TaintSource(SourceNet, 4)
	m.TaintSource(SourceNet, -1) // ignored

	s := m.Snapshot()
	want := Snapshot{
		CoarseChecks:    5,
		ResolvedTLB:     1,
		ResolvedCTC:     1,
		ResolvedPrecise: 2,
		CoarsePositives: 2,
		FalsePositives:  1,

		TLBMisses:    1,
		CTCMisses:    2,
		TCacheMisses: 1,

		CTCEvictions:             2,
		CTCEvictionsPendingClear: 1,

		SwitchesToSoftware: 2,
		SwitchesToHardware: 1,

		QueueStalls:   3,
		QueueMaxDepth: 9,

		ControlFlowViolations: 1,
		LeakViolations:        1,

		FileSourceBytes: 16,
		NetSourceBytes:  4,
	}
	if s != want {
		t.Errorf("snapshot mismatch:\n got  %+v\n want %+v", s, want)
	}

	m.Reset()
	if got := m.Snapshot(); got != (Snapshot{}) {
		t.Errorf("after Reset, snapshot = %+v, want zero", got)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.CoarseCheck(LevelTLB, false, false)
				m.QueueStall(w*perWorker + i)
			}
		}(w)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.CoarseChecks != workers*perWorker {
		t.Errorf("CoarseChecks = %d, want %d", s.CoarseChecks, workers*perWorker)
	}
	if s.QueueStalls != workers*perWorker {
		t.Errorf("QueueStalls = %d, want %d", s.QueueStalls, workers*perWorker)
	}
	if want := uint64(workers*perWorker - 1); s.QueueMaxDepth != want {
		t.Errorf("QueueMaxDepth = %d, want %d", s.QueueMaxDepth, want)
	}
}

func TestMulti(t *testing.T) {
	if got := Multi(); got != nil {
		t.Errorf("Multi() = %v, want nil", got)
	}
	if got := Multi(nil, nil); got != nil {
		t.Errorf("Multi(nil, nil) = %v, want nil", got)
	}

	a := NewMetrics()
	if got := Multi(nil, a); got != Observer(a) {
		t.Errorf("Multi(nil, a) should return a directly, got %T", got)
	}

	b := NewMetrics()
	fan := Multi(a, b)
	fan.CoarseCheck(LevelCTC, true, false)
	fan.CacheMiss(CacheTLB)
	fan.CacheEviction(CacheCTC, true)
	fan.EpochTransition(ModeSoftware, 1)
	fan.QueueStall(3)
	fan.Violation(ViolationLeak, 1, 2)
	fan.TaintSource(SourceNet, 8)
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa != sb {
		t.Errorf("fan-out divergence:\n a %+v\n b %+v", sa, sb)
	}
	if sa.CoarseChecks != 1 || sa.TLBMisses != 1 || sa.CTCEvictionsPendingClear != 1 ||
		sa.SwitchesToSoftware != 1 || sa.QueueStalls != 1 || sa.LeakViolations != 1 ||
		sa.NetSourceBytes != 8 {
		t.Errorf("fan-out missed events: %+v", sa)
	}
}

func TestSnapshotJSONKeys(t *testing.T) {
	m := NewMetrics()
	m.CoarseCheck(LevelPrecise, true, false)
	raw, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]uint64
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"coarse_checks", "resolved_tlb", "resolved_ctc", "resolved_precise",
		"coarse_positives", "false_positives", "tlb_misses", "ctc_misses",
		"tcache_misses", "ctc_evictions", "ctc_evictions_pending_clear",
		"switches_to_software", "switches_to_hardware", "queue_stalls",
		"queue_max_stall_depth", "control_flow_violations", "leak_violations",
		"file_source_bytes", "net_source_bytes",
	} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("snapshot JSON missing key %q", key)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	cases := []struct{ got, want string }{
		{LevelTLB.String(), "tlb"},
		{LevelCTC.String(), "ctc"},
		{LevelPrecise.String(), "t-cache"},
		{CacheTLB.String(), "tlb"},
		{CacheCTC.String(), "ctc"},
		{CacheTCache.String(), "t-cache"},
		{ModeHardware.String(), "hardware"},
		{ModeSoftware.String(), "software"},
		{ViolationControlFlow.String(), "control-flow"},
		{ViolationLeak.String(), "leak"},
		{SourceFile.String(), "file"},
		{SourceNet.String(), "net"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestMetricsEmissionsDoNotAllocate(t *testing.T) {
	m := NewMetrics()
	allocs := testing.AllocsPerRun(1000, func() {
		m.CoarseCheck(LevelPrecise, true, false)
		m.CacheMiss(CacheCTC)
		m.CacheEviction(CacheCTC, true)
		m.EpochTransition(ModeSoftware, 42)
		m.QueueStall(7)
		m.Violation(ViolationLeak, 1, 2)
		m.TaintSource(SourceFile, 64)
	})
	if allocs != 0 {
		t.Errorf("Metrics emissions allocate %.1f per run, want 0", allocs)
	}
}
