package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"nbschema/internal/catalog"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// Checkpoint snapshot format. A snapshot stream is a sequence of
// checkpoints; readers keep the newest complete one, so a writer may simply
// append each new checkpoint to the same sink.
//
//	checkpoint :=
//	  magic    uint32  (0x4E424350, "NBCP")
//	  version  byte    (1)
//	  begin    uvarint (LSN of the checkpoint-begin WAL record)
//	  ntables  uvarint
//	  table*
//	  0xFE     byte    (footer tag)
//	  end      uvarint (LSN of the checkpoint-end WAL record)
//	  crc32    uint32  (IEEE, over every preceding byte of this checkpoint)
//
//	table :=
//	  0x01     byte    (table tag)
//	  name     str
//	  state    byte    (catalog lifecycle state)
//	  ncols    uvarint, (name str, type byte, nullable byte)*
//	  npk      uvarint, pk-column-index uvarint*
//	  row*     (0x02 byte, lsn uvarint, tuple)
//	  0x00     byte    (table end tag)
//
// The table sections carry the full definitions — including hidden
// transformation targets whose schemas a restarting caller cannot supply —
// so restart can reconstruct tables straight from the snapshot. Rows are
// written by fuzzy partition scans: the image may mix row versions from
// before and during the scan, which the per-row LSNs make safe to repair by
// guarded redo of the WAL suffix.

const (
	snapMagic   = 0x4E424350 // "NBCP"
	snapVersion = 1

	snapTagTableEnd = 0x00
	snapTagTable    = 0x01
	snapTagRow      = 0x02
	snapTagFooter   = 0xFE
)

// SnapshotWriter streams one checkpoint to a sink, maintaining the running
// CRC. Begin it with BeginSnapshot, add each table with WriteTable, and seal
// it with Close once the checkpoint-end LSN is known.
type SnapshotWriter struct {
	bw  *bufio.Writer
	crc uint32
	n   int64
	buf []byte
	err error
}

// BeginSnapshot starts a checkpoint covering ntables tables, taken against
// the checkpoint-begin record at LSN begin.
func BeginSnapshot(w io.Writer, begin wal.LSN, ntables int) (*SnapshotWriter, error) {
	s := &SnapshotWriter{bw: bufio.NewWriter(w)}
	s.buf = binary.BigEndian.AppendUint32(s.buf[:0], snapMagic)
	s.buf = append(s.buf, snapVersion)
	s.buf = binary.AppendUvarint(s.buf, uint64(begin))
	s.buf = binary.AppendUvarint(s.buf, uint64(ntables))
	s.flushBuf()
	return s, s.err
}

func (s *SnapshotWriter) flushBuf() {
	if s.err != nil {
		return
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, s.buf)
	n, err := s.bw.Write(s.buf)
	s.n += int64(n)
	s.err = err
	s.buf = s.buf[:0]
}

func (s *SnapshotWriter) str(v string) {
	s.buf = binary.AppendUvarint(s.buf, uint64(len(v)))
	s.buf = append(s.buf, v...)
}

// Bytes returns the number of bytes written so far.
func (s *SnapshotWriter) Bytes() int64 { return s.n }

// WriteTable serializes one table: its full definition with lifecycle state
// state, then every heap partition via a fuzzy scan (writers are never
// stopped). The caller reads state from the catalog under its lock: the
// definition's own State field is written there concurrently. The fault points
// "storage.snapshot.partition" and "storage.snapshot.partition.<table>" are
// hit before each partition; an injected error aborts the snapshot
// (leaving it torn — without a footer — which readers discard), and a crash
// action simulates process death mid-snapshot.
func (s *SnapshotWriter) WriteTable(t *Table, state catalog.State, chunk int) error {
	if s.err != nil {
		return s.err
	}
	def := t.def
	s.buf = append(s.buf[:0], snapTagTable)
	s.str(def.Name)
	s.buf = append(s.buf, byte(state))
	s.buf = binary.AppendUvarint(s.buf, uint64(len(def.Columns)))
	for _, c := range def.Columns {
		s.str(c.Name)
		nb := byte(0)
		if c.Nullable {
			nb = 1
		}
		s.buf = append(s.buf, byte(c.Type), nb)
	}
	s.buf = binary.AppendUvarint(s.buf, uint64(len(def.PrimaryKey)))
	for _, pk := range def.PrimaryKey {
		s.buf = binary.AppendUvarint(s.buf, uint64(pk))
	}
	s.flushBuf()
	for pi := range t.parts {
		if err := t.faultHit("snapshot.partition"); err != nil {
			s.err = fmt.Errorf("storage: snapshot of table %s, partition %d: %w", def.Name, pi, err)
			return s.err
		}
		t.FuzzyScanPartition(pi, chunk, func(rows []Record) {
			if s.err != nil {
				return
			}
			for i := range rows {
				s.buf = append(s.buf[:0], snapTagRow)
				s.buf = binary.AppendUvarint(s.buf, uint64(rows[i].LSN))
				s.buf = wal.EncodeTuple(s.buf, rows[i].Row)
				s.flushBuf()
			}
		})
		if s.err != nil {
			return s.err
		}
	}
	s.buf = append(s.buf[:0], snapTagTableEnd)
	s.flushBuf()
	return s.err
}

// Close seals the checkpoint with the footer carrying the checkpoint-end LSN
// and the stream CRC, then flushes. A snapshot without a valid footer is
// torn and readers fall back to the previous checkpoint (or full replay).
func (s *SnapshotWriter) Close(end wal.LSN) error {
	if s.err != nil {
		return s.err
	}
	s.buf = append(s.buf[:0], snapTagFooter)
	s.buf = binary.AppendUvarint(s.buf, uint64(end))
	s.flushBuf()
	if s.err != nil {
		return s.err
	}
	var crcb [4]byte
	binary.BigEndian.PutUint32(crcb[:], s.crc)
	n, err := s.bw.Write(crcb[:])
	s.n += int64(n)
	if err != nil {
		s.err = err
		return err
	}
	if err := s.bw.Flush(); err != nil {
		s.err = err
		return err
	}
	return nil
}

// SnapshotTable is one table restored from a checkpoint: its reconstructed
// definition (including lifecycle state) and the fuzzy row image.
type SnapshotTable struct {
	Def  *catalog.TableDef
	Rows []Record
}

// Snapshot is one complete, checksum-verified checkpoint.
type Snapshot struct {
	// Begin is the LSN of the checkpoint-begin WAL record the snapshot was
	// taken against; End the LSN of the matching checkpoint-end record.
	Begin, End wal.LSN
	Tables     []SnapshotTable
}

// ReadNewestSnapshot scans a stream of concatenated checkpoints and returns
// the newest complete one: decoding stops at the first torn or corrupt
// checkpoint and the last fully-verified one before it wins. It returns nil
// (and no error) when no complete checkpoint exists — callers fall back to
// full log replay. Only genuine read failures return an error.
func ReadNewestSnapshot(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("storage: reading snapshot stream: %w", err)
	}
	var best *Snapshot
	off := 0
	for off < len(data) {
		snap, size := parseSnapshot(data[off:])
		if snap == nil {
			break
		}
		best = snap
		off += size
	}
	return best, nil
}

// snapDecoder walks one checkpoint's bytes.
type snapDecoder struct {
	buf []byte
	n   int
	err error
}

func (d *snapDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("storage: corrupt snapshot: truncated %s", what)
	}
}

func (d *snapDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.fail("bytes")
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	d.n += n
	return b
}

func (d *snapDecoder) byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *snapDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	d.n += n
	return v
}

func (d *snapDecoder) str() string {
	return string(d.take(int(d.uvarint())))
}

// parseSnapshot decodes one checkpoint from the front of data, returning it
// and its byte size, or (nil, 0) when the checkpoint is torn, corrupt, or
// fails its CRC.
func parseSnapshot(data []byte) (*Snapshot, int) {
	d := &snapDecoder{buf: data}
	if m := d.take(4); d.err != nil || binary.BigEndian.Uint32(m) != snapMagic {
		return nil, 0
	}
	if v := d.byte(); d.err != nil || v != snapVersion {
		return nil, 0
	}
	snap := &Snapshot{Begin: wal.LSN(d.uvarint())}
	ntables := d.uvarint()
	for i := uint64(0); i < ntables && d.err == nil; i++ {
		if tag := d.byte(); d.err != nil || tag != snapTagTable {
			return nil, 0
		}
		st := SnapshotTable{}
		name := d.str()
		state := catalog.State(d.byte())
		ncols := d.uvarint()
		if d.err != nil || ncols == 0 || ncols > 1<<16 {
			return nil, 0
		}
		cols := make([]catalog.Column, 0, ncols)
		for c := uint64(0); c < ncols && d.err == nil; c++ {
			cn := d.str()
			ct := d.byte()
			nb := d.byte()
			cols = append(cols, catalog.Column{Name: cn, Type: value.Kind(ct), Nullable: nb != 0})
		}
		npk := d.uvarint()
		if d.err != nil || npk > ncols {
			return nil, 0
		}
		pk := make([]string, 0, npk)
		for p := uint64(0); p < npk && d.err == nil; p++ {
			pi := d.uvarint()
			if pi >= uint64(len(cols)) {
				return nil, 0
			}
			pk = append(pk, cols[pi].Name)
		}
		if d.err != nil {
			return nil, 0
		}
		def, err := catalog.NewTableDef(name, cols, pk)
		if err != nil {
			return nil, 0
		}
		def.State = state
		st.Def = def
		for {
			tag := d.byte()
			if d.err != nil {
				return nil, 0
			}
			if tag == snapTagTableEnd {
				break
			}
			if tag != snapTagRow {
				return nil, 0
			}
			lsn := wal.LSN(d.uvarint())
			if d.err != nil {
				return nil, 0
			}
			row, rest, err := wal.DecodeTuple(d.buf)
			if err != nil {
				return nil, 0
			}
			d.n += len(d.buf) - len(rest)
			d.buf = rest
			st.Rows = append(st.Rows, Record{Row: row, LSN: lsn})
		}
		snap.Tables = append(snap.Tables, st)
	}
	if d.err != nil {
		return nil, 0
	}
	if tag := d.byte(); d.err != nil || tag != snapTagFooter {
		return nil, 0
	}
	snap.End = wal.LSN(d.uvarint())
	if d.err != nil {
		return nil, 0
	}
	body := d.n
	crcb := d.take(4)
	if d.err != nil {
		return nil, 0
	}
	if crc32.ChecksumIEEE(data[:body]) != binary.BigEndian.Uint32(crcb) {
		return nil, 0
	}
	return snap, d.n
}
