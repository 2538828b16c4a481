package ingest

import (
	"sync/atomic"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
)

// TableView is a snapshot-isolated, immutable read view of a
// WritableTable: the union of the sealed segments plus the frozen write
// tail at one generation, presented through the engine's colstore.Reader
// seam so the planner, all five executors, and the bitmap index work
// unmodified over live data.
//
// Row data is served from the table's append-only columnar spine: the
// view aliases each column's [0, rows) prefix, which later appends never
// mutate (they only extend, and a slice reallocation leaves the old
// backing array untouched). Sealed segments are additionally pinned by
// refcount: compaction may swap the canonical segment list underneath a
// live view, but the view's pinned segments — and their cached bitmap
// indexes and mmap handles — stay valid until the view is released.
//
// A view is also a bitmap.IndexedReader: the per-column block index is
// stitched from the pinned segments' cached per-segment indexes (one
// shifted OR per segment and value) plus a scan of only the unsealed
// tail blocks. The stitched index is bit-for-bit equal to a full Build
// scan, so executors behave identically; the cost per generation is
// O(new data), not O(table).
type TableView struct {
	inner      *colstore.Table // spine-aliased, zero-copy
	segs       []*segment      // pinned for the view's lifetime
	sealedRows int
	gen        uint64
	refs       atomic.Int64
}

// Compile-time conformance: the engine consumes views through these.
var (
	_ colstore.Reader           = (*TableView)(nil)
	_ bitmap.IndexedReader      = (*TableView)(nil)
	_ colstore.BlockStatsReader = (*TableView)(nil)
)

// newView pins the segments and wraps the spine prefix; callers (the
// WritableTable, under its mutex) pass segments they hold references to.
func newView(inner *colstore.Table, segs []*segment, sealedRows int, gen uint64) *TableView {
	v := &TableView{inner: inner, segs: segs, sealedRows: sealedRows, gen: gen}
	for _, s := range segs {
		s.pin()
	}
	v.refs.Store(1)
	return v
}

// Retain takes an additional reference; every Retain (and the reference
// returned by WritableTable.View) must be paired with one Release.
func (v *TableView) Retain() { v.refs.Add(1) }

// tryRetain takes a reference only if the view is still alive (refcount
// nonzero) — the lock-free View fast path may race with the cache
// swapping this view out and dropping its last reference.
func (v *TableView) tryRetain() bool {
	for {
		n := v.refs.Load()
		if n <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops a reference; the last release unpins the view's
// segments, letting compaction-superseded segments free their resources.
func (v *TableView) Release() {
	if v.refs.Add(-1) != 0 {
		return
	}
	for _, s := range v.segs {
		s.unpin()
	}
}

// Generation identifies the data version this view froze; it increases
// with every acked append, so serving layers use it as a cache key.
func (v *TableView) Generation() uint64 { return v.gen }

// NumRows implements colstore.Reader.
func (v *TableView) NumRows() int { return v.inner.NumRows() }

// BlockSize implements colstore.Reader.
func (v *TableView) BlockSize() int { return v.inner.BlockSize() }

// NumBlocks implements colstore.Reader.
func (v *TableView) NumBlocks() int { return v.inner.NumBlocks() }

// BlockSpan implements colstore.Reader.
func (v *TableView) BlockSpan(b int) (lo, hi int) { return v.inner.BlockSpan(b) }

// Columns implements colstore.Reader.
func (v *TableView) Columns() []string { return v.inner.Columns() }

// ColumnByName implements colstore.Reader.
func (v *TableView) ColumnByName(name string) (colstore.ColumnReader, error) {
	return v.inner.ColumnByName(name)
}

// MeasureNames implements colstore.Reader.
func (v *TableView) MeasureNames() []string { return v.inner.MeasureNames() }

// MeasureByName implements colstore.Reader.
func (v *TableView) MeasureByName(name string) (colstore.MeasureReader, error) {
	return v.inner.MeasureByName(name)
}

// Storage implements colstore.Reader: the spine lives on the heap;
// mmap-backed segments additionally report their mapped bytes (their
// pages serve index builds and restart, not the row hot path).
func (v *TableView) Storage() colstore.StorageStats {
	st := v.inner.Storage()
	st.Backend = "ingest"
	for _, s := range v.segs {
		st.MappedBytes += s.reader.Storage().MappedBytes
	}
	return st
}

// BlockStats implements colstore.BlockStatsReader by routing each sealed
// block to its segment reader's exact per-block statistics. Unsealed
// tail blocks are unknown and never prune.
func (v *TableView) BlockStats() colstore.BlockStats { return viewBlockStats{v: v} }

// viewBlockStats routes per-block statistics questions to the segment
// owning the block. Segments are block-aligned (rows are sealed in
// block-size multiples), so a table block lies entirely inside one
// segment or entirely in the tail.
type viewBlockStats struct{ v *TableView }

// segmentFor returns the pinned segment covering table block b and the
// block's segment-local index, or nil for tail/out-of-range blocks.
func (vs viewBlockStats) segmentFor(b int) (*segment, int) {
	segs := vs.v.segs
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if segs[mid].blockOff+segs[mid].blocks <= b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(segs) && b >= segs[lo].blockOff {
		return segs[lo], b - segs[lo].blockOff
	}
	return nil, 0
}

// MeasureRange implements colstore.BlockStats.
func (vs viewBlockStats) MeasureRange(measure string, b int) (lo, hi float64, ok bool) {
	s, local := vs.segmentFor(b)
	if s == nil {
		return 0, 0, false
	}
	return s.reader.BlockStats().MeasureRange(measure, local)
}

// PresenceWords implements colstore.BlockStats: the stitched view has
// no single exact value-major bitset (tail blocks are unknown), and an
// inexact one must never feed index construction, so this always
// declines.
func (vs viewBlockStats) PresenceWords(string) ([]uint64, int, bool) { return nil, 0, false }

// BlockIndex implements bitmap.IndexedReader: stitch every value of the
// sealed segments' cached indexes into place, then scan only the
// unsealed tail blocks.
func (v *TableView) BlockIndex(column string) (*bitmap.Index, error) {
	col, err := v.inner.ColumnByName(column)
	if err != nil {
		return nil, err
	}
	idx := bitmap.NewIndex(col.Cardinality(), v.inner.NumBlocks())
	for _, s := range v.segs {
		segIdx, err := s.blockIndex(column)
		if err != nil {
			return nil, err
		}
		for val := 0; val < segIdx.NumValues(); val++ {
			bs, err := segIdx.ValueBitset(uint32(val))
			if err != nil {
				return nil, err
			}
			if err := idx.OrValueShifted(uint32(val), bs, s.blockOff); err != nil {
				return nil, err
			}
		}
	}
	// Tail: the frozen write-buffer rows past the last sealed segment.
	rows := v.inner.NumRows()
	if v.sealedRows < rows {
		firstTailBlock := v.sealedRows / v.inner.BlockSize()
		for b := firstTailBlock; b < v.inner.NumBlocks(); b++ {
			lo, hi := v.inner.BlockSpan(b)
			for _, code := range col.Codes(lo, hi) {
				idx.Add(code, b)
			}
		}
	}
	return idx, nil
}
