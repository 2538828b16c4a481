package ingest

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
)

// segmentReader is what a sealed segment reads through: a spine-aliased
// *colstore.Table (sealed in memory) or a *colstore.MmapTable (a
// compacted file). Both carry exact per-block statistics and never
// return nil BlockStats, so those statistics are the segment's only
// summary: view-level skipping and index builds both read them.
type segmentReader interface {
	colstore.Reader
	BlockStats() colstore.BlockStats
}

// segment is one sealed, immutable, block-aligned run of rows. Segments
// are refcounted: the table's canonical list holds one reference and
// every published view holds one per segment it spans. A segment swapped
// out by compaction stays fully readable for the views that pinned it;
// the last unpin releases its resources (cached indexes, and the mmap
// handle for file-backed segments).
type segment struct {
	firstRow int
	rows     int
	blockOff int // block offset of the segment's first block
	blocks   int
	reader   segmentReader // block-aligned view of just this segment's rows
	file     string        // compacted snapshot file, "" if memory-only
	pins     atomic.Int64
	idxMu    sync.Mutex
	idx      map[string]*bitmap.Index
}

// newSegment wraps a block-aligned reader (rows must be a multiple of
// the table block size except for boot-loaded files, which are aligned
// by construction), holding the canonical list's reference.
func newSegment(firstRow int, r segmentReader, file string) *segment {
	s := &segment{
		firstRow: firstRow,
		rows:     r.NumRows(),
		blockOff: firstRow / r.BlockSize(),
		blocks:   r.NumBlocks(),
		reader:   r,
		file:     file,
		idx:      make(map[string]*bitmap.Index),
	}
	s.pins.Store(1)
	return s
}

// pin takes a reference; callers must hold an existing reference (the
// table's mutex guarantees that for the canonical list).
func (s *segment) pin() { s.pins.Add(1) }

// unpin drops a reference, releasing resources at zero.
func (s *segment) unpin() {
	if s.pins.Add(-1) != 0 {
		return
	}
	s.idxMu.Lock()
	s.idx = nil
	s.idxMu.Unlock()
	if c, ok := s.reader.(io.Closer); ok {
		_ = c.Close()
	}
}

// blockIndex returns (building and caching on first use) the segment's
// own bitmap index for a column — block bits are segment-local, shifted
// into place by the view-level stitch. Immutable once built, so it is
// shared across every view and generation that spans this segment: index
// maintenance cost is O(new data), not O(table), per generation. Build
// copies the reader's exact presence words instead of scanning the rows.
func (s *segment) blockIndex(column string) (*bitmap.Index, error) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.idx == nil {
		return nil, fmt.Errorf("ingest: segment [%d,%d) used after release", s.firstRow, s.firstRow+s.rows)
	}
	if idx, ok := s.idx[column]; ok {
		return idx, nil
	}
	idx, err := bitmap.Build(s.reader, column)
	if err != nil {
		return nil, err
	}
	s.idx[column] = idx
	return idx, nil
}
