package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"nbschema/internal/fault"
	"nbschema/internal/value"
)

// Binary log format, per record:
//
//	magic   uint16  (0x4C59, "WY")
//	length  uint32  (payload bytes, excluding header and trailer)
//	payload ...     (fields in fixed order, varint-framed)
//	crc32   uint32  (IEEE, over header AND payload)
//
// The format is self-delimiting so a log file can be replayed sequentially at
// restart. The magic doubles as the version tag: this is the third frame
// layout, the only one read or written (the first two, 0x4C57 and 0x4C58,
// lacked the checkpoint fields and the commit timestamp and are rejected
// like any unknown magic).

const recordMagic = 0x4C59

type encoder struct {
	buf []byte
}

func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) val(v value.Value) {
	e.buf = append(e.buf, byte(v.Kind()))
	switch v.Kind() {
	case value.KindNull:
	case value.KindBool:
		if v.AsBool() {
			e.buf = append(e.buf, 1)
		} else {
			e.buf = append(e.buf, 0)
		}
	case value.KindInt:
		e.buf = binary.AppendVarint(e.buf, v.AsInt())
	case value.KindFloat:
		e.uvarint(math.Float64bits(v.AsFloat()))
	case value.KindString:
		e.str(v.AsString())
	case value.KindBytes:
		b := v.AsBytes()
		e.uvarint(uint64(len(b)))
		e.buf = append(e.buf, b...)
	}
}

func (e *encoder) tuple(t value.Tuple) {
	e.uvarint(uint64(len(t)))
	for _, v := range t {
		e.val(v)
	}
}

func (e *encoder) ints(xs []int) {
	e.uvarint(uint64(len(xs)))
	for _, x := range xs {
		e.buf = binary.AppendVarint(e.buf, int64(x))
	}
}

// Marshal encodes a record into the binary log format.
func Marshal(r *Record) []byte {
	return AppendMarshal(nil, r)
}

// AppendMarshal appends r's binary log frame to buf and returns the extended
// slice. Hot paths (checkpoint streaming, the group-commit leader) pass a
// reusable scratch buffer (buf[:0]) so steady-state encoding allocates
// nothing — the encode-side mirror of the streaming Tail reader's
// ≤2-allocs/record decode budget.
func AppendMarshal(buf []byte, r *Record) []byte {
	start := len(buf)
	// Frame header placeholder: magic and payload length are fixed up once
	// the payload size is known.
	buf = append(buf, 0, 0, 0, 0, 0, 0)
	e := encoder{buf: buf}
	e.uvarint(uint64(r.LSN))
	e.uvarint(uint64(r.Prev))
	e.uvarint(uint64(r.Txn))
	e.buf = append(e.buf, byte(r.Type))
	e.str(r.Table)
	e.tuple(r.Key)
	e.tuple(r.Row)
	e.ints(r.Cols)
	e.tuple(r.Old)
	e.tuple(r.New)
	e.buf = append(e.buf, byte(r.Redo))
	e.uvarint(uint64(r.UndoNext))
	e.uvarint(uint64(len(r.Active)))
	for _, a := range r.Active {
		e.uvarint(uint64(a.ID))
		e.uvarint(uint64(a.First))
	}
	e.uvarint(uint64(r.Mark))
	e.uvarint(uint64(len(r.Marks)))
	for _, m := range r.Marks {
		e.str(m.Table)
		e.uvarint(uint64(m.Low))
	}
	e.uvarint(uint64(len(r.Meta)))
	e.buf = append(e.buf, r.Meta...)
	e.uvarint(uint64(r.Time))

	buf = e.buf
	binary.BigEndian.PutUint16(buf[start:], recordMagic)
	binary.BigEndian.PutUint32(buf[start+2:], uint32(len(buf)-start-6))
	// The CRC covers the frame header too, so a corrupted length field is
	// caught instead of desynchronizing the reader.
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// EncodeTuple appends t's binary encoding (the log codec's tuple format) to
// buf and returns the extended buffer. The checkpoint snapshot writer reuses
// the log's value codec for heap rows so the two on-disk formats share one
// set of primitives.
func EncodeTuple(buf []byte, t value.Tuple) []byte {
	e := encoder{buf: buf}
	e.tuple(t)
	return e.buf
}

// DecodeTuple decodes one tuple previously produced by EncodeTuple from the
// front of b, returning the tuple and the remaining bytes.
func DecodeTuple(b []byte) (value.Tuple, []byte, error) {
	d := decoder{buf: b}
	t := d.tuple()
	if d.err != nil {
		return nil, nil, d.err
	}
	return t, d.buf, nil
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: corrupt record: truncated %s", what)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.fail("byte")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)) < n {
		d.fail("bytes")
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) str() string {
	return string(d.bytes(d.uvarint()))
}

func (d *decoder) val() value.Value {
	switch value.Kind(d.byte()) {
	case value.KindNull:
		return value.Null()
	case value.KindBool:
		return value.Bool(d.byte() != 0)
	case value.KindInt:
		return value.Int(d.varint())
	case value.KindFloat:
		return value.Float(math.Float64frombits(d.uvarint()))
	case value.KindString:
		return value.Str(d.str())
	case value.KindBytes:
		return value.Bytes(d.bytes(d.uvarint()))
	default:
		d.fail("value kind")
		return value.Null()
	}
}

// tupleInto decodes a tuple reusing *buf's capacity, growing it as needed;
// the grown buffer is written back through buf so the caller's scratch keeps
// it. An empty tuple decodes to nil (several call sites distinguish a
// payload-less record by Row == nil), but the scratch buffer is retained.
// Decoded string and bytes payloads are copied by the value constructors, so
// the result never aliases d.buf.
func (d *decoder) tupleInto(buf *value.Tuple) value.Tuple {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if uint64(cap(*buf)) < n {
		*buf = make(value.Tuple, 0, n)
	}
	t := (*buf)[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		t = append(t, d.val())
	}
	*buf = t
	return t
}

func (d *decoder) tuple() value.Tuple {
	var buf value.Tuple
	return d.tupleInto(&buf)
}

func (d *decoder) intsInto(buf *[]int) []int {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if uint64(cap(*buf)) < n {
		*buf = make([]int, 0, n)
	}
	xs := (*buf)[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		xs = append(xs, int(d.varint()))
	}
	*buf = xs
	return xs
}

func (d *decoder) ints() []int {
	var buf []int
	return d.intsInto(&buf)
}

// strInterned decodes a string through an intern table, so repeated table
// names cost no allocation after the first occurrence. The map lookup keyed
// by string(b) does not allocate (the compiler elides the conversion).
func (d *decoder) strInterned(m map[string]string) string {
	b := d.bytes(d.uvarint())
	if len(b) == 0 {
		return ""
	}
	if s, ok := m[string(b)]; ok {
		return s
	}
	s := string(b)
	m[s] = s
	return s
}

// scratch holds the reusable decode buffers of a streaming reader: one
// buffer per tuple-valued record field, plus an intern table for table
// names. With scratch, decoding a record whose values are scalars performs
// no allocations at steady state.
type scratch struct {
	key, row, old, new value.Tuple
	cols               []int
	active             []ActiveTxn
	marks              []TableMark
	meta               []byte
	tables             map[string]string
}

func newScratch() *scratch {
	return &scratch{tables: make(map[string]string)}
}

// decodePayload decodes one payload previously produced by Marshal (without
// the frame header/trailer) into r. With a nil scratch every field is
// freshly allocated and r is safe to retain; with a scratch, tuple fields
// alias the scratch buffers and r is only valid until the next decode.
func decodePayload(payload []byte, r *Record, s *scratch) error {
	d := decoder{buf: payload}
	r.LSN = LSN(d.uvarint())
	r.Prev = LSN(d.uvarint())
	r.Txn = TxnID(d.uvarint())
	r.Type = Type(d.byte())
	if s != nil {
		r.Table = d.strInterned(s.tables)
		r.Key = d.tupleInto(&s.key)
		r.Row = d.tupleInto(&s.row)
		r.Cols = d.intsInto(&s.cols)
		r.Old = d.tupleInto(&s.old)
		r.New = d.tupleInto(&s.new)
	} else {
		r.Table = d.str()
		r.Key = d.tuple()
		r.Row = d.tuple()
		r.Cols = d.ints()
		r.Old = d.tuple()
		r.New = d.tuple()
	}
	r.Redo = Type(d.byte())
	r.UndoNext = LSN(d.uvarint())
	n := d.uvarint()
	r.Active = nil
	if n > 0 && d.err == nil {
		buf := r.Active
		if s != nil {
			if uint64(cap(s.active)) < n {
				s.active = make([]ActiveTxn, 0, n)
			}
			buf = s.active[:0]
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			buf = append(buf, ActiveTxn{ID: TxnID(d.uvarint()), First: LSN(d.uvarint())})
		}
		if s != nil {
			s.active = buf
		}
		r.Active = buf
	}
	r.Marks, r.Meta = nil, nil
	r.Mark = LSN(d.uvarint())
	if n := d.uvarint(); n > 0 && d.err == nil {
		buf := r.Marks
		if s != nil {
			if uint64(cap(s.marks)) < n {
				s.marks = make([]TableMark, 0, n)
			}
			buf = s.marks[:0]
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			var m TableMark
			if s != nil {
				m.Table = d.strInterned(s.tables)
			} else {
				m.Table = d.str()
			}
			m.Low = LSN(d.uvarint())
			buf = append(buf, m)
		}
		if s != nil {
			s.marks = buf
		}
		r.Marks = buf
	}
	if n := d.uvarint(); n > 0 && d.err == nil {
		b := d.bytes(n)
		if d.err == nil {
			if s != nil {
				s.meta = append(s.meta[:0], b...)
				r.Meta = s.meta
			} else {
				r.Meta = append([]byte(nil), b...)
			}
		}
	}
	r.Time = int64(d.uvarint())
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wal: corrupt record: %d trailing bytes", len(d.buf))
	}
	return nil
}

// Unmarshal decodes one framed record produced by Marshal.
func Unmarshal(b []byte) (*Record, error) {
	if len(b) < 10 {
		return nil, fmt.Errorf("wal: frame too short (%d bytes)", len(b))
	}
	if magic := binary.BigEndian.Uint16(b); magic != recordMagic {
		return nil, fmt.Errorf("wal: bad magic %#x", magic)
	}
	n := binary.BigEndian.Uint32(b[2:])
	if uint32(len(b)) != n+10 {
		return nil, fmt.Errorf("wal: frame length mismatch: header %d, got %d", n, len(b)-10)
	}
	want := binary.BigEndian.Uint32(b[6+n:])
	if got := crc32.ChecksumIEEE(b[:6+n]); got != want {
		return nil, fmt.Errorf("wal: crc mismatch: %#x != %#x", got, want)
	}
	r := &Record{}
	if err := decodePayload(b[6:6+n], r, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// WriteTo serializes the whole log to w in replay order. The fault point
// "wal.write" is hit once per record and may inject a write error (the flush
// analog of a failing disk). The fault point "wal.corrupt" is also hit once
// per record: when it fires with an error action, the record's last payload
// byte is flipped in the serialized frame — the header stays intact, so a
// reader sees in-place corruption (a CRC mismatch at that record's byte
// offset), not a torn tail.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	var frame []byte // one encode buffer reused for every record
	for _, rec := range l.Scan(1, 0) {
		if err := l.faults.Hit("wal.write"); err != nil {
			return total, err
		}
		frame = AppendMarshal(frame[:0], rec)
		if err := l.faults.Hit("wal.corrupt"); err != nil {
			frame[len(frame)-5] ^= 0x01
		}
		n, err := bw.Write(frame)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	if err := bw.Flush(); err != nil {
		return total, err
	}
	l.mFlushes.Add(1)
	l.mFlushBytes.Add(total)
	return total, nil
}

// CorruptionError reports the first invalid data found while replaying a
// serialized log: the byte offset of the frame that failed to decode and the
// 1-based position (equivalently, the LSN) the record would have had. Callers
// that repair a log by truncation cut at exactly Offset.
type CorruptionError struct {
	// Offset is the byte offset of the start of the first bad frame.
	Offset int64
	// Record is the 1-based record position at which decoding failed.
	Record int
	// Err is the underlying decode failure. A torn tail (the file ends
	// mid-frame) wraps io.ErrUnexpectedEOF.
	Err error
}

// Error formats the corruption site.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("wal: corrupt log at byte offset %d (record %d): %v", e.Offset, e.Record, e.Err)
}

// Unwrap exposes the underlying decode failure.
func (e *CorruptionError) Unwrap() error { return e.Err }

// Torn reports whether the corruption is a torn tail: the data simply ends
// mid-frame, the expected shape after a crash during a log flush.
func (e *CorruptionError) Torn() bool {
	return errors.Is(e.Err, io.ErrUnexpectedEOF)
}

// ReadLog replays a serialized log from r in strict mode: any torn or
// corrupt record aborts the read with a *CorruptionError carrying the byte
// offset of the first bad frame. It validates that LSNs are dense and
// ascending from 1.
func ReadLog(r io.Reader) (*Log, error) {
	l, cerr, err := readLog(r, nil)
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	return l, nil
}

// ReadLogLenient replays a serialized log from r, truncating a torn or
// corrupt tail to the last valid record: decoding stops at the first bad
// frame and every record before it is kept. The returned *CorruptionError
// describes the cut (nil when the log was fully intact); its Offset is the
// number of valid bytes. Genuine reader failures (non-EOF I/O errors) are
// still returned as errors.
func ReadLogLenient(r io.Reader) (*Log, *CorruptionError, error) {
	return readLog(r, nil)
}

// ReadLogWith is ReadLogLenient with a fault registry: the point "wal.read"
// is hit once per record and may inject a decode failure, which lenient
// callers observe as a truncation at that record.
func ReadLogWith(r io.Reader, faults *fault.Registry) (*Log, *CorruptionError, error) {
	return readLog(r, faults)
}

// readLog is the single decode loop behind both modes, a thin accumulation
// over the streaming Tail reader in owned mode. It returns the valid prefix,
// a *CorruptionError describing the first bad frame (nil if none), and a
// non-nil error only for failures that are not data corruption.
func readLog(r io.Reader, faults *fault.Registry) (*Log, *CorruptionError, error) {
	t := NewTail(r).Own()
	t.SetFaults(faults)
	l := NewLog()
	for {
		rec, err := t.Next()
		if err == io.EOF {
			return l, nil, nil // clean end at a record boundary
		}
		if err != nil {
			var cerr *CorruptionError
			if errors.As(err, &cerr) {
				return l, cerr, nil
			}
			return nil, nil, err
		}
		if rec.LSN != LSN(l.Len()+1) {
			return l, &CorruptionError{
				Offset: t.RecordOffset(), Record: l.Len() + 1,
				Err: fmt.Errorf("non-dense LSN %d at position %d", rec.LSN, l.Len()+1),
			}, nil
		}
		l.mu.Lock()
		l.recs = append(l.recs, rec)
		l.mu.Unlock()
		l.approxBytes.Add(approxSize(rec))
	}
}
