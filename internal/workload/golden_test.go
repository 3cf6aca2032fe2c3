package workload

import (
	"hash"
	"hash/fnv"
	"testing"

	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/trace"
)

// eventDigest hashes a stream of events field by field.
type eventDigest struct {
	h   hash.Hash64
	buf [10]byte
}

func newEventDigest() *eventDigest { return &eventDigest{h: fnv.New64a()} }

func (d *eventDigest) add(ev trace.Event) {
	d.buf[0] = byte(ev.Seq)
	d.buf[1] = byte(ev.Seq >> 8)
	d.buf[2] = byte(ev.PC)
	d.buf[3] = byte(ev.PC >> 8)
	d.buf[4] = byte(ev.Addr)
	d.buf[5] = byte(ev.Addr >> 8)
	d.buf[6] = byte(ev.Addr >> 16)
	d.buf[7] = byte(ev.Addr >> 24)
	d.buf[8] = ev.Size
	d.buf[9] = 0
	if ev.IsMem {
		d.buf[9] |= 1
	}
	if ev.IsWrite {
		d.buf[9] |= 2
	}
	if ev.Tainted {
		d.buf[9] |= 4
	}
	d.h.Write(d.buf[:])
}

const goldenDigestEvents = 50_000

// digestCase is one stream: a profile, its sampling spec, and its digest
// (0: compared across buffer lengths only).
type digestCase struct {
	name   string
	sample policy.Sampling
	digest uint64
}

// goldenDigests pins the first 50,000 events of each stream: every
// registered profile unsampled, and one sampled case per suite. They guard
// the calibration: the EXPERIMENTS.md results were produced from exactly
// these streams, so an unintended change to the generator, the profile
// constants, or the RNG's draws shows up as a digest change. When a change
// is deliberate (recalibration), update the values here and rerun the
// experiment suite so EXPERIMENTS.md stays truthful.
var goldenDigests = []digestCase{
	{"astar", policy.Sampling{}, 0x8aaf6d5bc190a5b4},
	{"bzip2", policy.Sampling{}, 0xadc6916f16cad8ca},
	{"cactusADM", policy.Sampling{}, 0x62700d3629a19d32},
	{"calculix", policy.Sampling{}, 0x873f41fdadd96352},
	{"gcc", policy.Sampling{}, 0x66c8c71fbcdca87c},
	{"gobmk", policy.Sampling{}, 0x7c7fd3a9051b32d8},
	{"gromacs", policy.Sampling{}, 0x70eb3ac18a52b9ec},
	{"h264ref", policy.Sampling{}, 0x434ea14e129d3ce7},
	{"hmmer", policy.Sampling{}, 0x2744a556da9ceb0c},
	{"lbm", policy.Sampling{}, 0x7e254b354389f1de},
	{"mcf", policy.Sampling{}, 0xbd6e3bc01a65c618},
	{"namd", policy.Sampling{}, 0x024b11dd837331f8},
	{"omnetpp", policy.Sampling{}, 0xa0d1b3a01ff3bc64},
	{"perlbench", policy.Sampling{}, 0x5c859f496cf1023c},
	{"povray", policy.Sampling{}, 0x347f31805eec7ebb},
	{"sjeng", policy.Sampling{}, 0x840acedc15b040a1},
	{"soplex", policy.Sampling{}, 0x01dc4e1f4234b18f},
	{"sphinx3", policy.Sampling{}, 0x53657093f52461fc},
	{"wrf", policy.Sampling{}, 0x639154f6b71d494f},
	{"xalancbmk", policy.Sampling{}, 0x639c317a3b1d9a11},
	{"apache", policy.Sampling{}, 0xfbb8ef7afbc3201a},
	{"apache-25", policy.Sampling{}, 0x42355db7c8cb0ed2},
	{"apache-50", policy.Sampling{}, 0xa2f27be9c23447a1},
	{"apache-75", policy.Sampling{}, 0x5bd48f384d6027b5},
	{"curl", policy.Sampling{}, 0x43ef440577350187},
	{"mysql", policy.Sampling{}, 0x8db030e1e7918d50},
	{"wget", policy.Sampling{}, 0xd5c343f090c26897},
	{"sphinx3", policy.Sampling{SampleFraction: 0.25, SampleSeed: 3}, 0x7b2e32bb1f4c774b},
	{"apache", policy.Sampling{SampleFraction: 0.5, SampleSeed: 7}, 0x25a688c21fc0dcc2},
}

// deliveryDigests runs a fresh generator for p through RunBatches with a
// size-event buffer and returns the stream's digest plus a digest of the
// shadow's tainted-byte count at each event's delivery. Every mutation the
// stream makes changes that count, so an event delivered after a mutation it
// preceded reads a different one. It also checks the batch boundaries: each
// batch is non-empty, continues the stream and stays within one
// size-event cell of the grid.
func deliveryDigests(t *testing.T, p Profile, spl policy.Sampling, size int) (stream, state uint64) {
	t.Helper()
	g, err := NewSampledGenerator(p, shadow.DefaultDomainSize, spl)
	if err != nil {
		t.Fatal(err)
	}
	d, st := newEventDigest(), fnv.New64a()
	var next uint64 = 1
	g.RunBatches(goldenDigestEvents, make([]trace.Event, size), func(evs []trace.Event) {
		if len(evs) == 0 || len(evs) > size {
			t.Fatalf("batch of %d events from a %d-event buffer", len(evs), size)
		}
		first, last := evs[0].Seq, evs[len(evs)-1].Seq
		if first != next || (first-1)/uint64(size) != (last-1)/uint64(size) {
			t.Fatalf("batch %d..%d crosses the %d-event grid or skips events (next %d)", first, last, size, next)
		}
		next = last + 1
		n := g.Shadow().TaintedBytes()
		for _, ev := range evs {
			d.add(ev)
			st.Write([]byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)})
		}
	})
	if next != goldenDigestEvents+1 {
		t.Fatalf("%s at buffer %d: delivered %d events", p.Name, size, next-1)
	}
	return d.h.Sum64(), st.Sum64()
}

// TestGoldenStreamDigests: Run's per-event stream matches the recorded
// digests. See goldenDigests before "fixing" a mismatch here.
func TestGoldenStreamDigests(t *testing.T) {
	for _, c := range goldenDigests {
		g, err := NewSampledGenerator(MustGet(c.name), shadow.DefaultDomainSize, c.sample)
		if err != nil {
			t.Fatal(err)
		}
		d := newEventDigest()
		g.Run(goldenDigestEvents, trace.SinkFunc(d.add))
		if got := d.h.Sum64(); got != c.digest {
			t.Errorf("%s %+v: stream digest %#016x, golden %#016x", c.name, c.sample, got, c.digest)
		}
	}
}

// TestRunBatchesDigests: RunBatches delivers the golden streams at buffer
// lengths 1, 7 and 512, and each event meets the shadow state it was
// generated under: the same as with one-event batches, which are delivered
// as they are generated. The wrap profile walks its one tainted page in a
// few hundred tainted accesses, so its taint cursor wraps, restoring the
// runs churn released, several times.
func TestRunBatchesDigests(t *testing.T) {
	wrap := MustGet("apache")
	wrap.Name, wrap.PagesTainted, wrap.TaintReuse = "apache-wrap", 1, 1
	cases := append([]digestCase{{name: wrap.Name}}, goldenDigests...)
	for _, c := range cases {
		p := wrap
		if c.name != wrap.Name {
			p = MustGet(c.name)
		}
		stream1, state1 := deliveryDigests(t, p, c.sample, 1)
		if c.digest != 0 && stream1 != c.digest {
			t.Errorf("%s %+v: digest %#016x, golden %#016x", c.name, c.sample, stream1, c.digest)
		}
		for _, size := range []int{7, 512} {
			stream, state := deliveryDigests(t, p, c.sample, size)
			if stream != stream1 {
				t.Errorf("%s %+v at buffer %d: digest %#016x, %#016x at buffer 1", c.name, c.sample, size, stream, stream1)
			}
			if state != state1 {
				t.Errorf("%s %+v at buffer %d: shadow state at delivery differs from buffer 1", c.name, c.sample, size)
			}
		}
	}
}

// TestGoldenDigestsCoverEveryProfile: goldenDigests pins every registered
// profile's unsampled stream and a sampled stream from each suite.
func TestGoldenDigestsCoverEveryProfile(t *testing.T) {
	unsampled := map[string]bool{}
	sampled := map[Suite]bool{}
	for _, c := range goldenDigests {
		if c.sample.Enabled() {
			sampled[MustGet(c.name).Suite] = true
		} else {
			unsampled[c.name] = true
		}
	}
	for _, name := range Names() {
		if !unsampled[name] {
			t.Errorf("%s: no golden digest for its unsampled stream", name)
		}
	}
	for _, s := range []Suite{SuiteSPEC, SuiteNetwork} {
		if !sampled[s] {
			t.Errorf("%s: no golden digest for a sampled stream", s)
		}
	}
}
