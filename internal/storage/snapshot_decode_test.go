package storage

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nbschema/internal/catalog"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// snapBytes serializes one complete checkpoint of a small table and returns
// its bytes.
func snapBytes(t *testing.T) []byte {
	t.Helper()
	tbl := NewTable(testDef(t))
	for i := int64(0); i < 8; i++ {
		if err := tbl.Insert(row(i, "eng", i*10), wal.LSN(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	sw, err := BeginSnapshot(&buf, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteTable(tbl, catalog.StatePublic, 4); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(9); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readSnap(t *testing.T, data []byte) *Snapshot {
	t.Helper()
	snap, err := ReadNewestSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadNewestSnapshot: %v", err)
	}
	return snap
}

func TestSnapshotDecodeRoundTrip(t *testing.T) {
	data := snapBytes(t)
	snap := readSnap(t, data)
	if snap == nil {
		t.Fatal("no snapshot decoded")
	}
	if snap.Begin != 1 || snap.End != 9 || len(snap.Tables) != 1 {
		t.Fatalf("snapshot = begin %d end %d tables %d", snap.Begin, snap.End, len(snap.Tables))
	}
	if st := snap.Tables[0]; st.Def.Name != "emp" || len(st.Rows) != 8 {
		t.Fatalf("table = %s with %d rows", st.Def.Name, len(st.Rows))
	}
}

// TestSnapshotDecodeTruncatedEveryOffset feeds the decoder every proper
// prefix of a valid checkpoint: each must decode to "no snapshot" without
// error or panic, whichever field the cut lands in (magic, uvarints,
// strings, row tuples, footer, CRC).
func TestSnapshotDecodeTruncatedEveryOffset(t *testing.T) {
	data := snapBytes(t)
	for off := 0; off < len(data); off++ {
		if snap := readSnap(t, data[:off]); snap != nil {
			t.Fatalf("truncation at %d/%d still decoded a snapshot", off, len(data))
		}
	}
}

// TestSnapshotDecodeTornKeepsPrevious appends a torn checkpoint after a
// complete one: readers keep the newest complete checkpoint.
func TestSnapshotDecodeTornKeepsPrevious(t *testing.T) {
	full := snapBytes(t)
	stream := append(append([]byte{}, full...), full[:len(full)/2]...)
	snap := readSnap(t, stream)
	if snap == nil || snap.End != 9 {
		t.Fatalf("torn tail dropped the complete checkpoint: %+v", snap)
	}
}

func TestSnapshotDecodeCorruptions(t *testing.T) {
	base := snapBytes(t)
	// Locate the header fields: magic[0:4], version[4], then uvarints.
	cases := []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"bad-version", func(b []byte) []byte { b[4] = snapVersion + 1; return b }},
		{"bad-table-tag", func(b []byte) []byte {
			// The first table tag is the byte after magic+version+begin+ntables.
			i := 5
			_, n := binary.Uvarint(b[i:]) // begin
			i += n
			_, n = binary.Uvarint(b[i:]) // ntables
			i += n
			b[i] = 0x7F
			return b
		}},
		{"crc-flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"footer-tag-flip", func(b []byte) []byte {
			// The footer tag sits before the end uvarint and the 4 CRC bytes.
			// end=9 encodes as one byte.
			b[len(b)-6] = 0x7D
			return b
		}},
		{"flip-mid-row", func(b []byte) []byte {
			// Corrupting a row tag in the middle makes the table section
			// unparseable; the CRC would catch a value flip that still
			// parses, so either rejection path may fire.
			b[len(b)/2] ^= 0xFF
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mut(append([]byte{}, base...))
			if snap := readSnap(t, data); snap != nil {
				t.Fatalf("%s still decoded a snapshot", tc.name)
			}
		})
	}
}

// TestSnapshotDecodeBadSectionCounts hand-crafts checkpoints whose section
// counts are inconsistent: zero columns, an absurd column count, more
// primary-key entries than columns, and a primary-key index out of range.
func TestSnapshotDecodeBadSectionCounts(t *testing.T) {
	header := func() []byte {
		b := binary.BigEndian.AppendUint32(nil, snapMagic)
		b = append(b, snapVersion)
		b = binary.AppendUvarint(b, 1) // begin
		b = binary.AppendUvarint(b, 1) // ntables
		b = append(b, snapTagTable)
		b = binary.AppendUvarint(b, 1) // len(name)
		b = append(b, 't')
		b = append(b, 0) // state
		return b
	}
	col := func(b []byte) []byte {
		b = binary.AppendUvarint(b, 2) // len("id")
		b = append(b, "id"...)
		b = append(b, byte(value.KindInt), 0)
		return b
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"zero-columns", binary.AppendUvarint(header(), 0)},
		{"huge-column-count", binary.AppendUvarint(header(), 1<<20)},
		{"npk-exceeds-ncols", binary.AppendUvarint(col(binary.AppendUvarint(header(), 1)), 5)},
		{"pk-index-out-of-range", binary.AppendUvarint(
			binary.AppendUvarint(col(binary.AppendUvarint(header(), 1)), 1), 7)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if snap := readSnap(t, tc.data); snap != nil {
				t.Fatalf("%s decoded a snapshot", tc.name)
			}
		})
	}
}

// TestSnapshotDecodeEmptyAndGarbage covers the degenerate inputs: an empty
// stream, a stream shorter than the magic, and unrelated bytes.
func TestSnapshotDecodeEmptyAndGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {0x4E}, {1, 2, 3, 4, 5, 6, 7, 8}} {
		if snap := readSnap(t, data); snap != nil {
			t.Fatalf("garbage %v decoded a snapshot", data)
		}
	}
}
