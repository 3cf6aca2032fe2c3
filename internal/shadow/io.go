package shadow

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"latch/internal/mem"
)

// Binary shadow snapshot format, for checkpointing taint state across runs
// (and shipping precise state between the S-LATCH layers in file form):
//
//	header:   "LSHD" magic, uint16 version, uint16 reserved, uint32 domain
//	          size, uint32 page count
//	per page: uint32 page number, uint16 run count, then runs of
//	          {uint16 offset, uint16 length, uint8 tag} covering the page's
//	          tainted bytes (run-length encoded; tag constant per run)
//
// Only currently-tainted bytes are stored; the ever-tainted page history is
// not part of a snapshot.

const (
	shadowMagic   = "LSHD"
	shadowVersion = 1
)

// ErrBadSnapshot reports a malformed shadow snapshot.
var ErrBadSnapshot = errors.New("shadow: malformed snapshot")

// WriteTo serializes the current taint state. It implements
// io.WriterTo.
func (s *Shadow) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(data any) error {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			return err
		}
		n += int64(binary.Size(data))
		return nil
	}
	if _, err := bw.WriteString(shadowMagic); err != nil {
		return n, err
	}
	n += 4
	pages := s.taintedPageNumbersNow()
	if err := write(uint16(shadowVersion)); err != nil {
		return n, err
	}
	if err := write(uint16(0)); err != nil {
		return n, err
	}
	if err := write(s.domainSize); err != nil {
		return n, err
	}
	if err := write(uint32(len(pages))); err != nil {
		return n, err
	}
	for _, pn := range pages {
		p := s.pages.Lookup(pn)
		runs := encodeRuns(&p.tags)
		if err := write(pn); err != nil {
			return n, err
		}
		if err := write(uint16(len(runs))); err != nil {
			return n, err
		}
		for _, r := range runs {
			if err := write(r); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// taintRun is one run-length-encoded span of identically tagged bytes.
type taintRun struct {
	Off uint16
	Len uint16
	Tag Tag
}

// encodeRuns compresses a page's tag array.
func encodeRuns(tags *[mem.PageSize]Tag) []taintRun {
	var runs []taintRun
	i := 0
	for i < mem.PageSize {
		if tags[i] == TagClean {
			i++
			continue
		}
		j := i
		for j < mem.PageSize && tags[j] == tags[i] {
			j++
		}
		runs = append(runs, taintRun{Off: uint16(i), Len: uint16(j - i), Tag: tags[i]})
		i = j
	}
	return runs
}

// taintedPageNumbersNow lists the pages holding taint now, ascending: the
// ever-tainted pages, which include every one of them, that still do.
func (s *Shadow) taintedPageNumbersNow() []uint32 {
	return slices.DeleteFunc(s.everTainted.Pages(), func(pn uint32) bool {
		return s.pages.Lookup(pn).taintedBytes == 0
	})
}

// ReadSnapshot deserializes a snapshot into a fresh Shadow. The snapshot's
// domain size is restored with it.
func ReadSnapshot(r io.Reader) (*Shadow, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadSnapshot, err)
	}
	if string(magic[:]) != shadowMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, magic)
	}
	var version, reserved uint16
	var domainSize, pageCount uint32
	for _, dst := range []any{&version, &reserved, &domainSize, &pageCount} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
	}
	if version != shadowVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, version)
	}
	s, err := New(domainSize)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	for i := uint32(0); i < pageCount; i++ {
		var pn uint32
		var runCount uint16
		if err := binary.Read(br, binary.LittleEndian, &pn); err != nil {
			return nil, fmt.Errorf("%w: page %d: %v", ErrBadSnapshot, i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &runCount); err != nil {
			return nil, fmt.Errorf("%w: page %d: %v", ErrBadSnapshot, i, err)
		}
		base := pn << mem.PageShift
		for j := uint16(0); j < runCount; j++ {
			var run taintRun
			if err := binary.Read(br, binary.LittleEndian, &run); err != nil {
				return nil, fmt.Errorf("%w: page %d run %d: %v", ErrBadSnapshot, i, j, err)
			}
			if int(run.Off)+int(run.Len) > mem.PageSize || run.Len == 0 || run.Tag == TagClean {
				return nil, fmt.Errorf("%w: page %d run %d out of range", ErrBadSnapshot, i, j)
			}
			s.SetRange(base+uint32(run.Off), int(run.Len), run.Tag)
		}
	}
	return s, nil
}
