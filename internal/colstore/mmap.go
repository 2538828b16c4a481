package colstore

import (
	"os"
	"unsafe"
)

// Zero-copy mmap snapshot backend.
//
// OpenMmapFile maps a snapshot (see snapshot.go) and serves its code and
// measure arrays straight out of the mapping: every array starts on an
// 8-byte file offset, so on a little-endian host the mapped bytes are
// reinterpreted as []uint32 / []float64 in place. Cold start is
// therefore ~instant regardless of table size, residency is managed by
// the OS page cache (tables larger than RAM work), and any number of
// processes share one physical copy of the data.
//
// The mapping is PROT_READ: a write through an aliased Codes/Values slice
// faults instead of silently corrupting shared pages, mechanically
// enforcing the Reader aliasing contract.
//
// Both opens run the same parser (parseSnapshot). What the mmap open
// leaves out is what would page in the measure arrays: it checks no CRC
// (that would hash every page) and adopts the stored per-block measure
// ranges unread. It does validate everything the engine's memory safety
// depends on: magic, version, structural bounds, alignment padding, and
// the dictionary range of every code (an out-of-range code would later
// index candidate/group arrays out of bounds inside executor
// goroutines). The code scan pages in the uint32 arrays sequentially —
// still O(ms) for millions of rows and far cheaper than a full
// materialize — and recomputes the per-block code-presence words, which
// must match the stored ones. Open with ReadSnapshotFile to fully verify
// a snapshot of doubtful provenance.
//
// Fallback: on hosts without mmap support (see mmap_other.go) and on
// big-endian hosts, OpenMmapFile materializes the table on the heap via
// ReadSnapshotFile instead; Storage() then reports backend
// "mmap-fallback".

// hostLittleEndian reports whether reinterpreting file bytes as native
// integers yields the snapshot's little-endian values.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// MmapTable is a Reader backed by a memory-mapped snapshot (or, in
// fallback mode, by a heap-materialized copy). It is immutable and safe
// for concurrent readers. Close unmaps the file; every slice previously
// returned by Codes/Values is invalid afterwards, so only close once no
// query can still be running.
type MmapTable struct {
	tbl  *Table
	data []byte // non-nil iff zero-copy mapped
}

// OpenMmapFile opens a snapshot with the mmap backend: zero-copy on
// little-endian linux/darwin hosts, a verified in-memory materialization
// anywhere else. A snapshot larger than the address space, or one whose
// mapping fails, is materialized the same way.
func OpenMmapFile(path string) (*MmapTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if mmapSupported && hostLittleEndian {
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		if st.Size() <= int64(int(^uint(0)>>1)) {
			if data, err := mmapFile(f, int(st.Size())); err == nil {
				tbl, perr := parseSnapshot(data, false)
				if perr != nil {
					_ = munmap(data)
					return nil, perr
				}
				return &MmapTable{tbl: tbl, data: data}, nil
			}
		}
	}
	tbl, err := ReadSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	return &MmapTable{tbl: tbl}, nil
}

// NumRows implements Reader.
func (mt *MmapTable) NumRows() int { return mt.tbl.NumRows() }

// BlockSize implements Reader.
func (mt *MmapTable) BlockSize() int { return mt.tbl.BlockSize() }

// NumBlocks implements Reader.
func (mt *MmapTable) NumBlocks() int { return mt.tbl.NumBlocks() }

// BlockSpan implements Reader.
func (mt *MmapTable) BlockSpan(b int) (lo, hi int) { return mt.tbl.BlockSpan(b) }

// Columns implements Reader.
func (mt *MmapTable) Columns() []string { return mt.tbl.Columns() }

// ColumnByName implements Reader.
func (mt *MmapTable) ColumnByName(name string) (ColumnReader, error) {
	return mt.tbl.ColumnByName(name)
}

// MeasureNames implements Reader.
func (mt *MmapTable) MeasureNames() []string { return mt.tbl.MeasureNames() }

// MeasureByName implements Reader.
func (mt *MmapTable) MeasureByName(name string) (MeasureReader, error) {
	return mt.tbl.MeasureByName(name)
}

// Storage implements Reader: mapped bytes dominate, with only
// dictionaries and bookkeeping on the heap (fallback mode is fully
// heap-resident).
func (mt *MmapTable) Storage() StorageStats {
	if mt.data == nil {
		return StorageStats{Backend: "mmap-fallback", HeapBytes: mt.tbl.heapBytes(true)}
	}
	return StorageStats{
		Backend:     "mmap",
		MappedBytes: int64(len(mt.data)),
		HeapBytes:   mt.tbl.heapBytes(false),
	}
}

// BlockStats implements BlockStatsReader. Both open paths pre-seed the
// underlying table's stats (the parser folds them into validation), so
// this never triggers a lazy recomputation that would page in measure
// arrays.
func (mt *MmapTable) BlockStats() BlockStats { return mt.tbl.BlockStats() }

// Close releases the file mapping. Every slice obtained through the
// table beforehand becomes invalid; callers must ensure no query is in
// flight. Close is idempotent and a no-op in fallback mode.
func (mt *MmapTable) Close() error {
	if mt.data == nil {
		return nil
	}
	data := mt.data
	mt.data = nil
	return munmap(data)
}

var (
	_ Reader           = (*MmapTable)(nil)
	_ BlockStatsReader = (*MmapTable)(nil)
)
