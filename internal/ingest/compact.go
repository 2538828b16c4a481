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
// Compaction is persistence only: reads are always served from the
// spine, so a compaction cycle writes a file, commits the manifest, and
// truncates the WAL it covers, and no reader ever notices. It runs two
// policies, both producing snapshot files identical to batch snapshots:
//
//  1. Persist: the sealed-but-unpersisted rows [persistedRows,
//     sealedRows) are written as one segment file. Once the manifest
//     commits, the covered WAL prefix is deleted — the WAL stays
//     proportional to the unsealed tail, not the table.
//  2. Merge: when more than Options.MaxSegmentFiles files accumulate,
//     all of them are re-merged into a single file covering
//     [0, persistedRows), bounding both file count and boot fan-in.
//     Full re-merge is deliberately simple; its write amplification is
//     O(table) per merge, i.e. roughly one full rewrite every
//     MaxSegmentFiles persist cycles, which is fine at the scales the
//     spine (one heap copy of the table) already implies. Raise
//     MaxSegmentFiles to amortize further; a size-tiered policy is the
//     upgrade path if file counts ever need to scale beyond that.
//
// Durability ordering is file write + fsync → manifest rename →
// WAL/file deletion, so a crash at any point leaves either the old
// manifest (orphaned file removed at boot) or the new one (covered WAL
// rows skipped by replay).

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

// persistSealed writes the sealed-but-unpersisted rows as one segment
// file and commits it.
func (t *WritableTable) persistSealed() error {
	t.mu.Lock()
	if t.closed || t.sealedRows == t.persistedRows {
		t.mu.Unlock()
		return nil
	}
	lo, hi := t.persistedRows, t.sealedRows
	tbl, err := t.rangeTable(lo, hi)
	files := t.files[:len(t.files):len(t.files)]
	t.mu.Unlock()
	if err != nil {
		return err
	}
	seg, err := t.writeSegmentFile(tbl, lo)
	if err != nil {
		return err
	}
	return t.commit(append(files, seg))
}

// mergeFiles re-merges every segment file into one when the file count
// exceeds the bound.
func (t *WritableTable) mergeFiles() error {
	t.mu.Lock()
	old := t.files
	if t.closed || len(old) <= t.opts.MaxSegmentFiles {
		t.mu.Unlock()
		return nil
	}
	last := old[len(old)-1]
	tbl, err := t.rangeTable(0, last.FirstRow+last.Rows)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	seg, err := t.writeSegmentFile(tbl, 0)
	if err != nil {
		return err
	}
	if err := t.commit([]manifestSegment{seg}); err != nil {
		return err
	}
	for _, f := range old {
		if err := os.Remove(filepath.Join(t.dir, f.File)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// writeSegmentFile durably writes rows [firstRow, firstRow+tbl.NumRows())
// as a snapshot file.
func (t *WritableTable) writeSegmentFile(tbl *colstore.Table, firstRow int) (manifestSegment, error) {
	seg := manifestSegment{File: segFileName(firstRow, tbl.NumRows()), FirstRow: firstRow, Rows: tbl.NumRows()}
	if err := colstore.WriteSnapshotFile(tbl, filepath.Join(t.dir, seg.File)); err != nil {
		return manifestSegment{}, fmt.Errorf("ingest: writing segment file %s: %w", seg.File, err)
	}
	return seg, nil
}

// commit makes files (in row order, the last one just written) the
// table's segment files: it writes the manifest, then truncates the WAL
// the files cover. Nothing changes in memory unless the manifest
// commits; on failure the new file is removed again.
func (t *WritableTable) commit(files []manifestSegment) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	seg := files[len(files)-1]
	if t.closed {
		os.Remove(filepath.Join(t.dir, seg.File))
		return fmt.Errorf("ingest: table closed during compaction")
	}
	persisted := max(t.persistedRows, seg.FirstRow+seg.Rows)
	m := manifest{Version: 1, Schema: t.schema, SealRows: t.opts.SealRows, PersistedRows: persisted, Segments: files}
	if err := writeManifest(t.dir, m); err != nil {
		os.Remove(filepath.Join(t.dir, seg.File))
		return err
	}
	t.files, t.persistedRows = files, persisted
	t.compactions++
	t.log.Info("compaction cycle committed",
		"dir", t.dir, "file", seg.File, "first_row", seg.FirstRow,
		"rows", seg.Rows, "persisted_rows", t.persistedRows,
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
