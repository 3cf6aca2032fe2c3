package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format: a fixed header followed by fixed-width little-endian
// event records. Traces let a workload stream be captured once and replayed
// into any model (or another implementation) without regenerating it.
//
//	header:  "LTRC" magic, uint16 version, uint16 reserved
//	record:  Seq u64 | PC u32 | Addr u32 | Size u8 | flags u8
//	flags:   bit0 IsMem, bit1 IsWrite, bit2 Tainted

const (
	traceMagic   = "LTRC"
	traceVersion = 1
	recordSize   = 8 + 4 + 4 + 1 + 1
)

// Flag bits.
const (
	flagIsMem   = 1 << 0
	flagIsWrite = 1 << 1
	flagTainted = 1 << 2
)

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace")

// Writer serializes events. It implements Sink, so any event producer can
// record to it. Flush must be called to drain buffered records.
type Writer struct {
	bw    *bufio.Writer
	count uint64
	err   error
}

// NewWriter writes a trace header to w and returns the record writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:], traceVersion)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{bw: bw}, nil
}

// Consume implements Sink; serialization errors are sticky and reported by
// Flush.
func (w *Writer) Consume(ev Event) {
	if w.err != nil {
		return
	}
	var rec [recordSize]byte
	binary.LittleEndian.PutUint64(rec[0:], ev.Seq)
	binary.LittleEndian.PutUint32(rec[8:], ev.PC)
	binary.LittleEndian.PutUint32(rec[12:], ev.Addr)
	rec[16] = ev.Size
	var flags byte
	if ev.IsMem {
		flags |= flagIsMem
	}
	if ev.IsWrite {
		flags |= flagIsWrite
	}
	if ev.Tainted {
		flags |= flagTainted
	}
	rec[17] = flags
	if _, err := w.bw.Write(rec[:]); err != nil {
		w.err = err
		return
	}
	w.count++
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.count }

// Flush drains buffered records and returns any sticky error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// Reader deserializes a trace stream.
type Reader struct {
	br    *bufio.Reader
	count uint64
}

// NewReader validates the header and returns a record reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadTrace, err)
	}
	if string(hdr[:4]) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, v)
	}
	return &Reader{br: br}, nil
}

// Next returns the next event, or io.EOF at a clean end of stream.
func (r *Reader) Next() (Event, error) {
	var rec [recordSize]byte
	if _, err := io.ReadFull(r.br, rec[:]); err != nil {
		if err == io.EOF {
			return Event{}, io.EOF
		}
		return Event{}, fmt.Errorf("%w: truncated record %d: %v", ErrBadTrace, r.count, err)
	}
	flags := rec[17]
	ev := Event{
		Seq:     binary.LittleEndian.Uint64(rec[0:]),
		PC:      binary.LittleEndian.Uint32(rec[8:]),
		Addr:    binary.LittleEndian.Uint32(rec[12:]),
		Size:    rec[16],
		IsMem:   flags&flagIsMem != 0,
		IsWrite: flags&flagIsWrite != 0,
		Tainted: flags&flagTainted != 0,
	}
	r.count++
	return ev, nil
}

// Count returns the number of records read so far.
func (r *Reader) Count() uint64 { return r.count }

// Replay streams every remaining event into sink, returning the count.
func (r *Reader) Replay(sink Sink) (uint64, error) {
	var n uint64
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		sink.Consume(ev)
		n++
	}
}
