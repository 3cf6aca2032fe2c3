package shadow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"latch/internal/mem"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := MustNew(64)
	s.SetRange(100, 20, MustLabel(0))
	s.SetRange(5000, 3, MustLabel(1))
	s.Set(5003, MustLabel(2))
	s.SetRange(1<<20, 4096, MustLabel(0)) // a fully tainted page

	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.DomainSize() != 64 {
		t.Fatalf("domain size = %d", restored.DomainSize())
	}
	if restored.TaintedBytes() != s.TaintedBytes() {
		t.Fatalf("tainted bytes %d != %d", restored.TaintedBytes(), s.TaintedBytes())
	}
	for _, addr := range []uint32{100, 119, 120, 5000, 5003, 5004, 1 << 20, 1<<20 + 4095} {
		if restored.Get(addr) != s.Get(addr) {
			t.Errorf("tag at %#x: %v != %v", addr, restored.Get(addr), s.Get(addr))
		}
	}
}

func TestSnapshotEmpty(t *testing.T) {
	s := MustNew(128)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.TaintedBytes() != 0 || restored.DomainSize() != 128 {
		t.Fatal("empty snapshot wrong")
	}
}

func TestSnapshotExcludesClearedState(t *testing.T) {
	s := MustNew(64)
	s.SetRange(0, 100, MustLabel(0))
	s.SetRange(0, 100, TagClean) // history, not current state
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.TaintedBytes() != 0 {
		t.Fatal("cleared bytes serialized")
	}
	if restored.EverTaintedPages() != 0 {
		t.Fatal("history should not survive a snapshot")
	}
}

func TestSnapshotErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOPE"),
		[]byte("LSHD"), // truncated header
		append([]byte("LSHD"), 9, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0), // bad version
	}
	for i, data := range cases {
		if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
	// Run out of page range.
	var buf bytes.Buffer
	buf.WriteString("LSHD")
	buf.Write([]byte{1, 0, 0, 0})  // version 1
	buf.Write([]byte{64, 0, 0, 0}) // domain 64
	buf.Write([]byte{1, 0, 0, 0})  // 1 page
	buf.Write([]byte{0, 0, 0, 0})  // page 0
	buf.Write([]byte{1, 0})        // 1 run
	buf.Write([]byte{0xFF, 0xFF})  // off 65535
	buf.Write([]byte{16, 0})       // len 16 -> overflows the page
	buf.Write([]byte{1})           // tag
	if _, err := ReadSnapshot(&buf); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("overflowing run: err = %v", err)
	}
	// Page numbers past the address space are refused, not shifted into a
	// 32-bit address that aliases a low page; the last page loads.
	page := func(pn uint32) *bytes.Buffer {
		var buf bytes.Buffer
		buf.WriteString("LSHD")
		buf.Write([]byte{1, 0, 0, 0, 64, 0, 0, 0, 1, 0, 0, 0})
		buf.Write(binary.LittleEndian.AppendUint32(nil, pn))
		buf.Write([]byte{1, 0, 8, 0, 4, 0, 1}) // 1 run: off 8, len 4, tag 1
		return &buf
	}
	for _, pn := range []uint32{mem.PageCount, 0x100001, 0xFFFFFFFF} {
		if _, err := ReadSnapshot(page(pn)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("page %#x: err = %v", pn, err)
		}
	}
	s, err := ReadSnapshot(page(mem.PageCount - 1))
	if err != nil || s.TaintedBytes() != 4 || s.Get(0xFFFFF008) != MustLabel(0) {
		t.Fatalf("last page: err = %v", err)
	}
}

func TestEncodeRuns(t *testing.T) {
	var tags [mem.PageSize]Tag
	tags[0] = MustLabel(0)
	tags[1] = MustLabel(0)
	tags[2] = MustLabel(1) // tag change splits runs
	tags[4095] = MustLabel(0)
	runs := encodeRuns(&tags)
	want := []taintRun{
		{Off: 0, Len: 2, Tag: MustLabel(0)},
		{Off: 2, Len: 1, Tag: MustLabel(1)},
		{Off: 4095, Len: 1, Tag: MustLabel(0)},
	}
	if len(runs) != len(want) {
		t.Fatalf("runs = %+v", runs)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("run %d = %+v, want %+v", i, runs[i], want[i])
		}
	}
}

func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(writes []struct {
		Addr uint16
		Tag  uint8
	}) bool {
		s := MustNew(64)
		for _, w := range writes {
			s.Set(uint32(w.Addr), Tag(w.Tag))
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			return false
		}
		r, err := ReadSnapshot(&buf)
		if err != nil {
			return false
		}
		for a := uint32(0); a <= 0xFFFF; a += 7 {
			if r.Get(a) != s.Get(a) {
				return false
			}
		}
		return r.TaintedBytes() == s.TaintedBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
