package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"nbschema/internal/fault"
)

// Tail is a streaming reader over a serialized log: it decodes one framed
// record per Next call instead of materializing the whole log, and by
// default reuses a single Record and one set of payload buffers across
// calls, so steady-state decoding of scalar-valued records allocates
// nothing. The record returned by Next is valid only until the next call;
// callers that retain records switch the reader to owned mode with Own,
// which decodes every record into fresh memory (the frame buffer is still
// reused — decoded values never alias it).
//
// Next returns io.EOF at a clean end of input (a record boundary), a
// *CorruptionError for a torn or corrupt frame, and a plain error for
// genuine I/O failures. After a corruption the reader is done: subsequent
// calls return io.EOF, and Offset reports the number of valid bytes — the
// truncation point lenient recovery cuts at.
type Tail struct {
	br     *bufio.Reader
	faults *fault.Registry
	s      *scratch
	rec    Record
	body   []byte
	offset int64 // byte offset of the next frame
	last   int64 // byte offset of the most recently returned record's frame
	n      int   // records returned so far
	own    bool
	done   bool
}

// NewTail returns a streaming reader over r in buffer-reusing mode.
func NewTail(r io.Reader) *Tail {
	return &Tail{br: bufio.NewReader(r), s: newScratch()}
}

// Own switches the reader to owned mode: every Next decodes into a fresh
// Record that the caller may retain indefinitely. It returns the reader for
// chaining.
func (t *Tail) Own() *Tail {
	t.own = true
	return t
}

// SetFaults arms the reader with a fault registry: the point "wal.read" is
// hit once per Next and an injected error surfaces as a *CorruptionError at
// the current frame, which lenient callers observe as a truncation.
func (t *Tail) SetFaults(f *fault.Registry) { t.faults = f }

// Reset rewinds the reader onto a new input, keeping the decode buffers and
// intern table. It exists so benchmarks and pooled readers can iterate many
// logs without re-allocating the reader state.
func (t *Tail) Reset(r io.Reader) {
	if t.br == nil {
		t.br = bufio.NewReader(r)
	} else {
		t.br.Reset(r)
	}
	t.offset, t.last, t.n, t.done = 0, 0, 0, false
}

// Offset returns the byte offset of the next frame — after a clean EOF, the
// total size; after a corruption, the number of valid bytes before it.
func (t *Tail) Offset() int64 { return t.offset }

// RecordOffset returns the byte offset of the frame of the most recently
// returned record.
func (t *Tail) RecordOffset() int64 { return t.last }

// Count returns the number of records returned so far.
func (t *Tail) Count() int { return t.n }

// Next decodes and returns the next record. See the type comment for the
// error contract and the lifetime of the returned record.
func (t *Tail) Next() (*Record, error) {
	if t.done {
		return nil, io.EOF
	}
	corrupt := func(err error) (*Record, error) {
		t.done = true
		return nil, &CorruptionError{Offset: t.offset, Record: t.n + 1, Err: err}
	}
	if err := t.faults.Hit("wal.read"); err != nil {
		return corrupt(err)
	}
	var header [6]byte
	n, err := io.ReadFull(t.br, header[:])
	if err == io.EOF {
		t.done = true
		return nil, io.EOF // clean end at a record boundary
	}
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			return corrupt(fmt.Errorf("torn frame header (%d of 6 bytes): %w", n, io.ErrUnexpectedEOF))
		}
		t.done = true
		return nil, fmt.Errorf("wal: reading frame header: %w", err)
	}
	if magic := binary.BigEndian.Uint16(header[:]); magic != recordMagic {
		return corrupt(fmt.Errorf("bad magic %#x", magic))
	}
	length := binary.BigEndian.Uint32(header[2:])
	need := int(length) + 4
	if cap(t.body) < need {
		t.body = make([]byte, need)
	}
	body := t.body[:need]
	if n, err := io.ReadFull(t.br, body); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return corrupt(fmt.Errorf("torn frame body (%d of %d bytes): %w", n, len(body), io.ErrUnexpectedEOF))
		}
		t.done = true
		return nil, fmt.Errorf("wal: reading frame body: %w", err)
	}
	payload := body[:length]
	want := binary.BigEndian.Uint32(body[length:])
	// The CRC covers the frame header too.
	got := crc32.Update(crc32.ChecksumIEEE(header[:]), crc32.IEEETable, payload)
	if got != want {
		return corrupt(fmt.Errorf("crc mismatch: %#x != %#x", got, want))
	}
	rec := &t.rec
	s := t.s
	if t.own {
		rec, s = &Record{}, nil
	}
	if err := decodePayload(payload, rec, s); err != nil {
		return corrupt(err)
	}
	t.last = t.offset
	t.offset += int64(6 + len(body))
	t.n++
	return rec, nil
}
