package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

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
// A segment file is a batch snapshot, so it persists exact per-block
// statistics (presence words, measure ranges); its mapped reader serves
// them as the new segment's one summary, and nothing is carried over
// from the children.
//
// Swaps are atomic with respect to readers: the new segment replaces its
// children in the canonical list under the table mutex, while in-flight
// views keep their pinned children alive until released — snapshot
// isolation via the segment refcounts. Durability ordering is file
// write + fsync → manifest rename → WAL/file deletion, so a crash at any
// point leaves either the old manifest (orphaned file removed at boot)
// or the new one (covered WAL rows skipped by replay).

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
	merged, err := t.writeSegmentFile(tbl, lo)
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
	merged, err := t.writeSegmentFile(tbl, 0)
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
// as a snapshot file and wraps it, mapped, as a segment. The file
// persists exact presence words, so the merged segment's first index
// build per column is a word copy, not a rescan.
func (t *WritableTable) writeSegmentFile(tbl *colstore.Table, firstRow int) (*segment, error) {
	name := segFileName(firstRow, tbl.NumRows())
	path := filepath.Join(t.dir, name)
	if err := colstore.WriteSnapshotFile(tbl, path); err != nil {
		return nil, fmt.Errorf("ingest: writing segment file %s: %w", name, err)
	}
	reader, err := colstore.OpenMmapFile(path)
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("ingest: re-opening segment file %s: %w", name, err)
	}
	return newSegment(firstRow, reader, name), nil
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
