package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"nbschema/internal/fault"
)

// TestRetiredFrameMagicIsRejectedWithOffset: the magic is the version tag and
// only one version is read, so a frame carrying a retired magic (0x4C57,
// 0x4C58) is in-place corruption like any other unknown magic — reported at
// the byte offset of that frame in strict mode, cut there in lenient mode.
func TestRetiredFrameMagicIsRejectedWithOffset(t *testing.T) {
	for _, magic := range []uint16{0x4C57, 0x4C58, 0xFFFF} {
		var buf bytes.Buffer
		buf.Write(Marshal(&Record{LSN: 1, Txn: 1, Type: TypeBegin}))
		buf.Write(Marshal(&Record{LSN: 2, Txn: 1, Prev: 1, Type: TypeCommit}))
		at := buf.Len()
		bad := Marshal(&Record{LSN: 3, Txn: 2, Type: TypeBegin})
		binary.BigEndian.PutUint16(bad, magic)
		buf.Write(bad)

		_, err := ReadLog(bytes.NewReader(buf.Bytes()))
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("magic %#x: strict read err = %v, want CorruptionError", magic, err)
		}
		if ce.Offset != int64(at) || ce.Record != 3 || ce.Torn() || !strings.Contains(ce.Error(), "bad magic") {
			t.Errorf("magic %#x: corruption = %v (offset %d, record %d, torn %v), want bad magic at offset %d, record 3",
				magic, ce, ce.Offset, ce.Record, ce.Torn(), at)
		}
		log, cut, err := ReadLogLenient(bytes.NewReader(buf.Bytes()))
		if err != nil || cut == nil || cut.Offset != int64(at) || log.Len() != 2 {
			t.Errorf("magic %#x: lenient read kept %d records, cut %+v, err %v; want 2 records cut at %d",
				magic, log.Len(), cut, err, at)
		}
		if _, err := Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("magic %#x: Unmarshal err = %v", magic, err)
		}
	}
}

func TestV2RoundTripCheckpointFields(t *testing.T) {
	in := &Record{
		LSN: 5, Type: TypeCheckpointEnd, Mark: 3,
		Active: []ActiveTxn{{ID: 9, First: 2}},
		Marks:  []TableMark{{Table: "a", Low: 1}, {Table: "b", Low: 3}},
		Meta:   []byte("opaque"),
	}
	out, err := Unmarshal(Marshal(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Mark != in.Mark || len(out.Marks) != 2 || out.Marks[1].Low != 3 ||
		string(out.Meta) != "opaque" || len(out.Active) != 1 {
		t.Errorf("round trip = %+v", out)
	}
}

func TestCorruptLengthFieldIsBounded(t *testing.T) {
	// The CRC covers the frame header, so a flipped length field surfaces as
	// corruption at that frame (CRC mismatch or truncated frame), never as
	// silent misdecoding or a desynchronized reader.
	for _, bit := range []byte{0x01, 0x80} {
		frame := Marshal(&Record{LSN: 1, Txn: 1, Type: TypeBegin})
		frame[5] ^= bit // low byte of the length field
		log, cut, err := ReadLogLenient(bytes.NewReader(frame))
		if err != nil || cut == nil || cut.Offset != 0 || log.Len() != 0 {
			t.Errorf("length ^ %#x: kept %d records, cut %+v, err %v; want corruption at offset 0", bit, log.Len(), cut, err)
		}
	}
}

func TestV3RoundTripCommitTime(t *testing.T) {
	now := time.Now().UnixNano()
	in := &Record{LSN: 7, Txn: 3, Prev: 6, Type: TypeCommit, Time: now}
	out, err := Unmarshal(Marshal(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Time != now {
		t.Errorf("Time round trip = %d, want %d", out.Time, now)
	}
}

// TestV3TornTailLenientTruncation cuts a frame mid-timestamp: the lenient
// reader must keep every whole record and report the torn tail at the exact
// byte offset.
func TestV3TornTailLenientTruncation(t *testing.T) {
	now := time.Now().UnixNano()
	var whole bytes.Buffer
	whole.Write(Marshal(&Record{LSN: 1, Txn: 1, Type: TypeBegin, Time: now}))
	whole.Write(Marshal(&Record{LSN: 2, Txn: 1, Prev: 1, Type: TypeCommit, Time: now}))
	cutAt := whole.Len()
	whole.Write(Marshal(&Record{LSN: 3, Txn: 2, Type: TypeBegin, Time: now}))

	torn := whole.Bytes()[:whole.Len()-3] // ends inside the last frame
	log, cut, err := ReadLogLenient(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("lenient read: %v", err)
	}
	if cut == nil || !cut.Torn() {
		t.Fatalf("cut = %+v, want torn tail", cut)
	}
	if cut.Offset != int64(cutAt) {
		t.Errorf("cut offset %d, want %d", cut.Offset, cutAt)
	}
	if log.Len() != 2 {
		t.Errorf("kept %d records, want 2", log.Len())
	}
	if got, _ := log.Get(2); got.Time != now {
		t.Errorf("surviving record lost Time: %d", got.Time)
	}
}

func TestCorruptFaultPointFlipsPayload(t *testing.T) {
	// Arm wal.corrupt: WriteTo flips one payload byte mid-stream; strict
	// reading must report a CorruptionError with the byte offset of the
	// damaged frame, and lenient reading must cut there.
	log := NewLog()
	for i := 1; i <= 8; i++ {
		log.Append(&Record{Txn: TxnID(i), Type: TypeBegin})
	}
	reg := fault.New()
	reg.Arm("wal.corrupt", fault.OnHit(4), fault.ErrorAction(nil))
	log.SetFaults(reg)
	var buf bytes.Buffer
	if _, err := log.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}

	_, err := ReadLog(bytes.NewReader(buf.Bytes()))
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("strict read err = %v, want CorruptionError", err)
	}
	if ce.Torn() {
		t.Error("in-place corruption misreported as torn tail")
	}
	if ce.Offset < 0 || ce.Offset >= int64(buf.Len()) {
		t.Errorf("corruption offset %d out of range [0,%d)", ce.Offset, buf.Len())
	}

	lenient, cut, err := ReadLogLenient(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("lenient read: %v", err)
	}
	if cut == nil || cut.Offset != ce.Offset {
		t.Errorf("lenient cut = %+v, want offset %d", cut, ce.Offset)
	}
	if lenient.Len() != 3 {
		t.Errorf("lenient log kept %d records, want 3 (cut at record 4)", lenient.Len())
	}
	if cut.Record != 4 {
		t.Errorf("cut at record %d, want 4", cut.Record)
	}
}

// TestTypeCodesStable pins the on-disk type codes of the lifecycle records
// and checks that frames carrying the retired codes 13 and 14 still decode:
// logs written before those codes were retired must replay unchanged.
func TestTypeCodesStable(t *testing.T) {
	if TypeTransformStart != 12 || TypeTransformSwitch != 15 || TypeTransformDone != 16 {
		t.Fatalf("start = %d, switch = %d, done = %d; want 12, 15, 16",
			TypeTransformStart, TypeTransformSwitch, TypeTransformDone)
	}
	var buf bytes.Buffer
	buf.Write(Marshal(&Record{LSN: 1, Type: Type(13), Mark: 5}))
	buf.Write(Marshal(&Record{LSN: 2, Type: Type(14), Mark: 7}))
	buf.Write(Marshal(&Record{LSN: 3, Type: TypeTransformSwitch, Mark: 1}))
	log, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs := log.Scan(1, 0)
	if len(recs) != 3 || recs[0].Type != 13 || recs[0].Mark != 5 ||
		recs[1].Type != 14 || recs[1].Mark != 7 || recs[2].Type != TypeTransformSwitch {
		t.Fatalf("decoded %+v", recs)
	}
}
