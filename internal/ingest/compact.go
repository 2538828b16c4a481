package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
)

// Background compaction.
//
// The compactor runs two policies, both producing snapshot files
// (mmap-able, identical to batch snapshots):
//
//  1. Persist: every sealed-but-unpersisted segment run [persistedRows,
//     sealedRows) is merged into one segment file. Once the manifest
//     commits, the covered WAL prefix is deleted — the WAL stays
//     proportional to the unsealed tail, not the table.
//  2. Merge: when more than Options.MaxSegmentFiles files accumulate,
//     all of them are re-merged into a single file covering
//     [0, persistedRows), bounding both file count and replay fan-in.
//     Full re-merge is deliberately simple; its write amplification is
//     O(table) per merge, i.e. roughly one full rewrite every
//     MaxSegmentFiles persist cycles, which is fine at the scales the
//     spine (one heap copy of the table) already implies. Raise
//     MaxSegmentFiles to amortize further; a size-tiered policy is the
//     upgrade path if file counts ever need to scale beyond that.
//
// Swaps are atomic with respect to readers: the new segment (backed by
// the freshly written file, mmap-opened unless disabled) replaces its
// children in the canonical list under the table mutex, while in-flight
// views keep their pinned children alive until released — snapshot
// isolation via the segment refcounts. Durability ordering is
// file write + fsync → manifest rename → WAL/file deletion, so a crash
// at any point leaves either the old manifest (orphaned file removed at
// boot) or the new one (covered WAL rows skipped by replay).

// runCompactor is the background loop started by Open.
func (t *WritableTable) runCompactor() {
	defer close(t.done)
	ticker := time.NewTicker(t.opts.CompactInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-t.nudge:
		case <-ticker.C:
		}
		if err := t.CompactNow(); err != nil {
			t.mu.Lock()
			t.compactErrs++
			t.lastCompactErr = err.Error()
			t.mu.Unlock()
			t.log.Warn("compaction failed", "dir", t.dir, "error", err)
		} else {
			t.mu.Lock()
			t.lastCompactErr = ""
			t.mu.Unlock()
		}
	}
}

// CompactNow synchronously runs one compaction cycle (persist, then
// merge if the file count calls for it). The background loop calls it on
// its own; it is exported for tests, tools, and embedders that disabled
// the loop.
func (t *WritableTable) CompactNow() error {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	if err := t.persistSealed(); err != nil {
		return err
	}
	return t.mergeFiles()
}

// persistSealed folds the sealed-but-unpersisted segments into one
// snapshot file and swaps a file-backed segment in for them.
func (t *WritableTable) persistSealed() error {
	t.mu.Lock()
	if t.closed || t.sealedRows == t.persistedRows {
		t.mu.Unlock()
		return nil
	}
	lo, hi := t.persistedRows, t.sealedRows
	tbl, err := t.rangeTable(lo, hi)
	var children []*segment
	for _, s := range t.segments {
		if s.firstRow >= lo && s.firstRow < hi {
			children = append(children, s)
		}
	}
	t.mu.Unlock()
	if err != nil {
		return err
	}
	merged, err := t.writeSegmentFile(tbl, lo, children)
	if err != nil {
		return err
	}
	return t.swapSegments(merged, children)
}

// mergeFiles re-merges every file-backed segment into one when the file
// count exceeds the bound.
func (t *WritableTable) mergeFiles() error {
	t.mu.Lock()
	var children []*segment
	for _, s := range t.segments {
		if s.file != "" {
			children = append(children, s)
		}
	}
	if t.closed || len(children) <= t.opts.MaxSegmentFiles {
		t.mu.Unlock()
		return nil
	}
	hi := children[len(children)-1].firstRow + children[len(children)-1].rows
	tbl, err := t.rangeTable(0, hi)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	merged, err := t.writeSegmentFile(tbl, 0, children)
	if err != nil {
		return err
	}
	oldFiles := make([]string, len(children))
	for i, c := range children {
		oldFiles[i] = c.file
	}
	if err := t.swapSegments(merged, children); err != nil {
		return err
	}
	// The manifest no longer references the old files; unlinking is safe
	// even while released-but-not-yet-unpinned views still have them
	// mapped (POSIX keeps the pages until the mapping goes away).
	for _, f := range oldFiles {
		if err := os.Remove(filepath.Join(t.dir, f)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// writeSegmentFile durably writes rows [firstRow, firstRow+tbl.NumRows())
// as a snapshot file and wraps it as a segment, inheriting the children's
// zone maps and pre-stitching their cached bitmap indexes so the merged
// segment starts warm.
func (t *WritableTable) writeSegmentFile(tbl *colstore.Table, firstRow int, children []*segment) (*segment, error) {
	rows := tbl.NumRows()
	name := segFileName(firstRow, rows)
	path := filepath.Join(t.dir, name)
	if err := colstore.WriteSnapshotFile(tbl, path); err != nil {
		return nil, fmt.Errorf("ingest: writing segment file %s: %w", name, err)
	}
	reader, closer, err := openSegmentReader(path, t.opts.DisableMmap)
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("ingest: re-opening segment file %s: %w", name, err)
	}
	seg := &segment{reader: reader, closer: closer}
	seg.firstRow = firstRow
	seg.rows = rows
	seg.blockOff = firstRow / t.schema.BlockSize
	seg.blocks = reader.NumBlocks()
	seg.file = name
	seg.zone = mergeZoneMaps(children)
	seg.idx = make(map[string]*bitmap.Index)
	seg.pins.Store(1)
	t.prestitchIndexes(seg, children)
	return seg, nil
}

// prestitchIndexes carries the children's per-column index caches over
// to the merged segment: a column whose index every child already built
// gets the merged index by shifted ORs instead of a rescan.
func (t *WritableTable) prestitchIndexes(merged *segment, children []*segment) {
	if len(children) == 0 {
		return
	}
	caches := make([]map[string]*bitmap.Index, len(children))
	for i, c := range children {
		caches[i] = c.cachedIndexes()
	}
	for _, column := range t.schema.Columns {
		complete := true
		card := 0
		for i := range children {
			idx, ok := caches[i][column]
			if !ok {
				complete = false
				break
			}
			if idx.NumValues() > card {
				card = idx.NumValues()
			}
		}
		if !complete {
			continue
		}
		stitched := bitmap.NewIndex(card, merged.blocks)
		ok := true
		for i, c := range children {
			childIdx := caches[i][column]
			off := c.blockOff - merged.blockOff
			for v := 0; v < childIdx.NumValues() && ok; v++ {
				bs, err := childIdx.ValueBitset(uint32(v))
				if err != nil || stitched.OrValueShifted(uint32(v), bs, off) != nil {
					ok = false
				}
			}
		}
		if ok {
			merged.adoptIndex(column, stitched)
		}
	}
}

// swapSegments atomically replaces the children with the merged segment
// in the canonical list, commits the manifest, and truncates the covered
// WAL prefix.
func (t *WritableTable) swapSegments(merged *segment, children []*segment) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		merged.unpin()
		os.Remove(filepath.Join(t.dir, merged.file))
		return fmt.Errorf("ingest: table closed during compaction")
	}
	// Splice: keep segments outside [merged.firstRow, merged end).
	end := merged.firstRow + merged.rows
	next := make([]*segment, 0, len(t.segments))
	for _, s := range t.segments {
		if s.firstRow >= merged.firstRow && s.firstRow < end {
			continue
		}
		next = append(next, s)
	}
	// Insert in row order.
	out := make([]*segment, 0, len(next)+1)
	inserted := false
	for _, s := range next {
		if !inserted && s.firstRow > merged.firstRow {
			out = append(out, merged)
			inserted = true
		}
		out = append(out, s)
	}
	if !inserted {
		out = append(out, merged)
	}
	t.segments = out
	if end > t.persistedRows {
		t.persistedRows = end
	}
	t.compactions++

	// Drop the canonical references to the swapped-out children; views
	// still pinning them keep them (and their mmap handles) alive. This
	// happens before the manifest write: the in-memory swap is already
	// committed, so a manifest error below must not leak the children's
	// pins (the WAL is left untouched on that path, keeping recovery
	// correct under the old on-disk manifest).
	for _, c := range children {
		c.unpin()
	}

	m := manifest{Version: 1, Schema: t.schema, SealRows: t.opts.SealRows, PersistedRows: t.persistedRows}
	for _, s := range t.segments {
		if s.file != "" {
			m.Segments = append(m.Segments, manifestSegment{File: s.file, FirstRow: s.firstRow, Rows: s.rows})
		}
	}
	if err := writeManifest(t.dir, m); err != nil {
		return err
	}
	t.log.Info("compaction cycle committed",
		"dir", t.dir, "file", merged.file, "first_row", merged.firstRow,
		"rows", merged.rows, "persisted_rows", t.persistedRows,
		"compactions", t.compactions)
	// Rotate the WAL off any file still holding covered rows, then drop
	// fully covered files.
	if t.wal != nil {
		if t.wal.active.firstRow < t.persistedRows && t.wal.active.firstRow != t.rows {
			if err := t.wal.rotate(t.rows); err != nil {
				return err
			}
		}
		if err := t.wal.truncateCovered(t.persistedRows); err != nil {
			return err
		}
	}
	return nil
}
