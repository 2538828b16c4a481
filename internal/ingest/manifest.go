package ingest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// manifestName is the table directory's metadata file. It is the root of
// crash recovery: boot trusts only segment files the manifest lists
// (anything else in the directory is a leftover from an interrupted
// compaction and is deleted), then replays the WAL for every row at or
// beyond PersistedRows.
const manifestName = "MANIFEST.json"

// manifest is the durable table metadata, written atomically
// (write-temp + fsync + rename) on creation and after every compaction.
type manifest struct {
	Version int    `json:"version"`
	Schema  Schema `json:"schema"`
	// SealRows is the segment sealing granularity the table was created
	// with; persisted so segment files stay aligned across restarts.
	SealRows int `json:"seal_rows"`
	// PersistedRows counts rows durable in the segment files below; WAL
	// replay skips rows before this point.
	PersistedRows int `json:"persisted_rows"`
	// Segments lists the compacted snapshot files in row order.
	Segments []manifestSegment `json:"segments"`
}

// manifestSegment locates one compacted segment file.
type manifestSegment struct {
	File     string `json:"file"`
	FirstRow int    `json:"first_row"`
	Rows     int    `json:"rows"`
}

// writeManifest atomically replaces the manifest.
func writeManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	// Best-effort directory sync so the rename itself is durable.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// readManifest loads the manifest; ok is false when none exists (a fresh
// table directory).
func readManifest(dir string) (manifest, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, err
	}
	corrupt := func(format string, args ...any) (manifest, bool, error) {
		return manifest{}, false, fmt.Errorf("ingest: %w: %s: %s", ErrCorrupt, manifestName, fmt.Sprintf(format, args...))
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return corrupt("%v", err)
	}
	if m.Version != 1 {
		return corrupt("unsupported version %d", m.Version)
	}
	// The manifest records the validated schema the table was created
	// with and a block-aligned seal granularity; a missing value here is
	// corruption, not a default to fill in.
	bs := m.Schema.BlockSize
	if bs <= 0 || m.SealRows <= 0 || m.SealRows%bs != 0 {
		return corrupt("block size %d with seal rows %d", bs, m.SealRows)
	}
	if err := m.Schema.validate(); err != nil {
		return corrupt("%v", err)
	}
	// Structural sanity: block-aligned segments must tile
	// [0, PersistedRows) exactly.
	at := 0
	for _, s := range m.Segments {
		if s.FirstRow != at || s.Rows <= 0 || s.Rows%bs != 0 || strings.ContainsAny(s.File, "/\\") {
			return corrupt("segment list is inconsistent at row %d", at)
		}
		at += s.Rows
	}
	if at != m.PersistedRows {
		return corrupt("segments cover %d rows but %d are declared persisted", at, m.PersistedRows)
	}
	return m, true, nil
}

// segFileName names a compacted segment file by its row range.
func segFileName(firstRow, rows int) string {
	return fmt.Sprintf("seg-%016d-%d.fms", firstRow, rows)
}

// removeOrphans deletes segment files the manifest does not list —
// leftovers of a compaction that crashed between writing its file and
// committing the manifest, or (seg-*.fms.tmp) before renaming it into
// place.
func removeOrphans(dir string, m manifest) error {
	listed := make(map[string]bool, len(m.Segments))
	for _, s := range m.Segments {
		listed[s.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || listed[name] {
			continue
		}
		if strings.HasPrefix(name, "seg-") && (strings.HasSuffix(name, ".fms") || strings.HasSuffix(name, ".fms.tmp")) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		if name == manifestName+".tmp" {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	return nil
}
