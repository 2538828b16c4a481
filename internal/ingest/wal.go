package ingest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Write-ahead log.
//
// Each WAL file starts with an 8-byte header — magic "FMWAL\x00", a
// version byte, and a zero pad byte — followed by length-prefixed,
// CRC-guarded records (all integers little-endian):
//
//	u32 payload length
//	u32 CRC-32 (IEEE) of the payload
//	payload:
//	  u64 firstRow   row index of the batch's first tuple
//	  u32 rowCount
//	  per row, schema order:
//	    per column:  u32 byte length + value bytes
//	    per measure: u64 IEEE-754 bits
//
// Values travel as strings, not dictionary codes, so replay re-derives
// codes through the same interning path as live appends — recovery is
// independent of dictionary state and deterministic.
//
// Files are named wal-<firstRow>.log where <firstRow> is the table row
// count when the file was opened; records carry their own firstRow, so a
// file's coverage is self-describing. Rotation happens at compaction:
// once every row of a file is covered by persisted segment files, the
// file is deleted. A torn trailing record (short header, short payload,
// or CRC mismatch) marks the crash point: replay stops there and the
// file is truncated back to the last intact record before new appends.

const (
	walVersion    = 1
	walHeaderSize = 8
	// walMaxPayload caps record size so a corrupt length prefix cannot
	// force an absurd allocation before the CRC check runs.
	walMaxPayload = 1 << 28
)

var walMagic = [8]byte{'F', 'M', 'W', 'A', 'L', 0x00, walVersion, 0x00}

// walFileName names the WAL file opened when the table had firstRow rows.
func walFileName(firstRow int) string {
	return fmt.Sprintf("wal-%016d.log", firstRow)
}

// parseWalFileName extracts the firstRow a WAL file name declares.
func parseWalFileName(name string) (int, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// walFile tracks one on-disk WAL file's row coverage.
type walFile struct {
	name     string
	firstRow int // row count when the file was opened
	endRow   int // one past the last row recorded in the file
	bytes    int64
}

// wal is the table's write-ahead log: one active file plus bookkeeping
// for older files awaiting truncation. Not safe for concurrent use; the
// owning WritableTable serializes access under its mutex.
type wal struct {
	dir     string
	f       *os.File
	active  walFile
	older   []walFile
	syncs   int64
	scratch []byte
	// broken poisons the log after a write error that could not be
	// cleanly rolled back: accepting further appends could place acked
	// records after a torn one, where replay would silently drop them.
	broken bool
}

// rotate opens a fresh file starting at the given row count, then
// retires the active one into the older list. The new file is fully
// created before any old state is touched, so a failed rotation (disk
// full) leaves the log exactly as it was — still appendable.
func (w *wal) rotate(rows int) error {
	name := walFileName(rows)
	// O_APPEND keeps writes anchored to EOF, so truncating a torn record
	// away (rollback in append) repositions the next write correctly.
	f, err := os.OpenFile(filepath.Join(w.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: creating WAL file: %w", err)
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		_ = os.Remove(filepath.Join(w.dir, name))
		return fmt.Errorf("ingest: writing WAL header: %w", err)
	}
	var closeErr error
	if w.f != nil {
		closeErr = w.f.Close()
		w.older = append(w.older, w.active)
	}
	w.f = f
	w.active = walFile{name: name, firstRow: rows, endRow: rows, bytes: walHeaderSize}
	if closeErr != nil {
		// The swap is complete and consistent; surface the close failure
		// (the old file's records were already written, and synced ones
		// already acked).
		return fmt.Errorf("ingest: closing rotated WAL file: %w", closeErr)
	}
	return nil
}

// append encodes and writes one batch record, optionally fsyncing before
// returning (the ack barrier). A failed write is rolled back by
// truncating the file to the last intact record; if even that fails the
// log is poisoned — otherwise a later acked record written after the
// torn bytes would be silently discarded by crash replay.
func (w *wal) append(schema Schema, firstRow int, rows []Row, sync bool) error {
	if w.broken {
		return fmt.Errorf("ingest: WAL is poisoned by an earlier write failure; reopen the table to recover")
	}
	payload := encodeWALRecord(w.scratch[:0], schema, firstRow, rows)
	w.scratch = payload[:0] // reuse the (possibly grown) buffer next time
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	fail := func(what string, err error) error {
		if terr := w.f.Truncate(w.active.bytes); terr != nil {
			w.broken = true
			return fmt.Errorf("ingest: %s: %v (rollback truncate also failed, WAL poisoned: %v)", what, err, terr)
		}
		return fmt.Errorf("ingest: %s: %w", what, err)
	}
	if _, err := w.f.Write(hdr[:]); err != nil {
		return fail("writing WAL record header", err)
	}
	if _, err := w.f.Write(payload); err != nil {
		return fail("writing WAL record", err)
	}
	if sync {
		if err := w.f.Sync(); err != nil {
			// The record's durability is unknowable after a failed fsync;
			// roll it back (it was never acked) and poison the log — the
			// kernel may have dropped the dirty pages, so later fsyncs
			// can't be trusted either. Reopen to recover.
			err = fail("syncing WAL", err)
			w.broken = true
			return err
		}
		w.syncs++
	}
	w.active.bytes += int64(len(hdr) + len(payload))
	w.active.endRow = firstRow + len(rows)
	return nil
}

// truncateCovered deletes every non-active WAL file whose rows are all
// persisted in segment files.
func (w *wal) truncateCovered(persistedRows int) error {
	kept := w.older[:0]
	for _, f := range w.older {
		if f.endRow <= persistedRows {
			if err := os.Remove(filepath.Join(w.dir, f.name)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("ingest: removing covered WAL file %s: %w", f.name, err)
			}
			continue
		}
		kept = append(kept, f)
	}
	w.older = kept
	return nil
}

// totalBytes sums the live WAL files' sizes.
func (w *wal) totalBytes() int64 {
	n := w.active.bytes
	for _, f := range w.older {
		n += f.bytes
	}
	return n
}

func (w *wal) numFiles() int { return 1 + len(w.older) }

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// encodeWALRecord appends the batch payload to buf.
func encodeWALRecord(buf []byte, schema Schema, firstRow int, rows []Row) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(firstRow))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	for _, r := range rows {
		for _, c := range schema.Columns {
			v := r.Values[c]
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
			buf = append(buf, v...)
		}
		for _, m := range schema.Measures {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Measures[m]))
		}
	}
	return buf
}

// decodeWALRecord parses one record payload into rows.
func decodeWALRecord(payload []byte, schema Schema) (firstRow int, rows []Row, err error) {
	fail := func(what string) (int, []Row, error) {
		return 0, nil, fmt.Errorf("ingest: %w: WAL record %s", ErrCorrupt, what)
	}
	if len(payload) < 12 {
		return fail("too short")
	}
	firstRow = int(binary.LittleEndian.Uint64(payload[0:8]))
	n := int(binary.LittleEndian.Uint32(payload[8:12]))
	// Bound the declared row count by what the payload could possibly
	// hold (≥ 4 bytes per column value, 8 per measure; a validated schema
	// has a column), so a corrupt count that slipped past the CRC cannot
	// force a giant allocation. The division form cannot overflow.
	minRowBytes := 4*len(schema.Columns) + 8*len(schema.Measures)
	if n < 0 || n > (len(payload)-12)/minRowBytes {
		return fail("declares more rows than its payload holds")
	}
	off := 12
	rows = make([]Row, 0, n)
	for i := 0; i < n; i++ {
		r := Row{Values: make(map[string]string, len(schema.Columns))}
		if len(schema.Measures) > 0 {
			r.Measures = make(map[string]float64, len(schema.Measures))
		}
		for _, c := range schema.Columns {
			if off+4 > len(payload) {
				return fail("truncated value length")
			}
			l := int(binary.LittleEndian.Uint32(payload[off : off+4]))
			off += 4
			if l < 0 || off+l > len(payload) {
				return fail("truncated value")
			}
			r.Values[c] = string(payload[off : off+l])
			off += l
		}
		for _, m := range schema.Measures {
			if off+8 > len(payload) {
				return fail("truncated measure")
			}
			r.Measures[m] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off : off+8]))
			off += 8
		}
		rows = append(rows, r)
	}
	if off != len(payload) {
		return fail("has trailing bytes")
	}
	return firstRow, rows, nil
}

// walReplay reads every WAL file in dir in row order, invoking apply for
// each intact record and truncating each file back to its last intact
// record (dropping torn crash tails). It returns bookkeeping for the
// surviving files so the table can resume coverage tracking.
func walReplay(dir string, schema Schema, apply func(firstRow int, rows []Row) error) ([]walFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []walFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if start, ok := parseWalFileName(e.Name()); ok {
			files = append(files, walFile{name: e.Name(), firstRow: start, endRow: start})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].firstRow < files[j].firstRow })
	for i := range files {
		if err := replayWALFile(dir, &files[i], schema, apply); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// replayWALFile replays one file, updating its coverage in place.
func replayWALFile(dir string, wf *walFile, schema Schema, apply func(int, []Row) error) error {
	path := filepath.Join(dir, wf.name)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		// A header-less file is a crash during creation: drop it entirely.
		return truncateWALFile(path, wf, 0)
	}
	if hdr[0] != 'F' || hdr[1] != 'M' || hdr[2] != 'W' || hdr[3] != 'A' || hdr[4] != 'L' || hdr[5] != 0 {
		return fmt.Errorf("ingest: %s is not a WAL file (bad magic)", wf.name)
	}
	if hdr[6] != walVersion {
		return fmt.Errorf("ingest: %s has unsupported WAL version %d", wf.name, hdr[6])
	}
	good := int64(walHeaderSize)
	var buf []byte
	for {
		var rh [8]byte
		if _, err := io.ReadFull(f, rh[:]); err != nil {
			break // clean EOF or torn header: stop at last intact record
		}
		plen := int(binary.LittleEndian.Uint32(rh[0:4]))
		want := binary.LittleEndian.Uint32(rh[4:8])
		if plen <= 0 || plen > walMaxPayload {
			break
		}
		if cap(buf) < plen {
			buf = make([]byte, plen)
		}
		buf = buf[:plen]
		if _, err := io.ReadFull(f, buf); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(buf) != want {
			break // corrupt record
		}
		firstRow, rows, err := decodeWALRecord(buf, schema)
		if err != nil {
			return fmt.Errorf("ingest: %s at offset %d: %w", wf.name, good, err)
		}
		if err := apply(firstRow, rows); err != nil {
			return err
		}
		good += int64(8 + plen)
		wf.endRow = firstRow + len(rows)
	}
	return truncateWALFile(path, wf, good)
}

// truncateWALFile cuts a file back to size bytes (removing a torn tail;
// removing the file entirely when even the header is incomplete).
func truncateWALFile(path string, wf *walFile, size int64) error {
	if size == 0 {
		wf.bytes = 0
		return os.Remove(path)
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if st.Size() != size {
		if err := os.Truncate(path, size); err != nil {
			return fmt.Errorf("ingest: truncating torn WAL tail of %s: %w", wf.name, err)
		}
	}
	wf.bytes = size
	return nil
}

// adoptReplayed converts replay bookkeeping into a live WAL: the newest
// surviving file is re-opened for append and the rest are tracked for
// truncation. If no file survived, a fresh one is opened at rows.
func adoptReplayed(dir string, files []walFile, rows int) (*wal, error) {
	w := &wal{dir: dir}
	live := files[:0]
	for _, f := range files {
		if f.bytes > 0 {
			live = append(live, f)
		}
	}
	if len(live) == 0 {
		if err := w.rotate(rows); err != nil {
			return nil, err
		}
		return w, nil
	}
	last := live[len(live)-1]
	f, err := os.OpenFile(filepath.Join(dir, last.name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ingest: reopening WAL file: %w", err)
	}
	w.f = f
	w.active = last
	w.older = append(w.older, live[:len(live)-1]...)
	return w, nil
}
