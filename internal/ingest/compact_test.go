package ingest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastmatch/internal/engine"
)

// dirListing returns the names of WAL and segment files in dir.
func dirListing(t *testing.T, dir string) (walFiles, segFiles []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := parseWalFileName(e.Name()); ok {
			walFiles = append(walFiles, e.Name())
		}
		if strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".fms") {
			segFiles = append(segFiles, e.Name())
		}
	}
	return walFiles, segFiles
}

func TestCompactionPersistsAndTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	wt, err := Open(dir, testSchema(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer wt.Close()
	appendAll(t, wt, genRows(1300, 31)) // seals 1024 (SealRows=512), tail 276
	if err := wt.CompactNow(); err != nil {
		t.Fatal(err)
	}
	st := wt.Stats()
	if st.PersistedRows != 1024 || st.SegmentFiles != 1 || st.Compactions != 1 {
		t.Fatalf("bad compaction state: %+v", st)
	}
	walFiles, segFiles := dirListing(t, dir)
	if len(segFiles) != 1 {
		t.Fatalf("want 1 segment file, got %v", segFiles)
	}
	// The pre-compaction WAL file still holds the unsealed tail rows
	// (1024–1300), so it must survive; the fresh active file joins it.
	if len(walFiles) != 2 {
		t.Fatalf("want rotated WAL (2 files), got %v", walFiles)
	}

	// A second cycle with more rows: the old WAL file is now fully
	// covered once its tail rows seal and persist.
	appendAll(t, wt, genRows(800, 32)) // total 2100, seals through 2048
	if err := wt.CompactNow(); err != nil {
		t.Fatal(err)
	}
	st = wt.Stats()
	if st.PersistedRows != 2048 {
		t.Fatalf("second compaction: %+v", st)
	}
	walFiles, _ = dirListing(t, dir)
	for _, f := range walFiles {
		start, _ := parseWalFileName(f)
		if start < 1024 {
			t.Fatalf("WAL file %s covers persisted rows and should be gone (files: %v)", f, walFiles)
		}
	}
}

func TestMergeFilesPolicyBoundsFileCount(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.MaxSegmentFiles = 2
	wt, err := Open(dir, testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer wt.Close()
	for i := 0; i < 4; i++ {
		appendAll(t, wt, genRows(512, int64(40+i)))
		if err := wt.CompactNow(); err != nil {
			t.Fatal(err)
		}
	}
	_, segFiles := dirListing(t, dir)
	if len(segFiles) > opts.MaxSegmentFiles {
		t.Fatalf("merge policy violated: %d files on disk (%v), max %d", len(segFiles), segFiles, opts.MaxSegmentFiles)
	}
	st := wt.Stats()
	if st.PersistedRows != 2048 || st.SegmentFiles != len(segFiles) {
		t.Fatalf("inconsistent state after merges: %+v", st)
	}
}

func TestReopenFromSegmentsAndWAL(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.NoSync = false
	wt, err := Open(dir, testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := genRows(1400, 33)
	appendAll(t, wt, rows)
	if err := wt.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := wt.Close(); err != nil {
		t.Fatal(err)
	}

	wt2, err := Open(dir, Schema{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer wt2.Close()
	if wt2.Rows() != 1400 {
		t.Fatalf("reopened with %d rows, want 1400", wt2.Rows())
	}
	st := wt2.Stats()
	if st.PersistedRows != 1024 || st.ReplayedRows != 1400-1024 {
		t.Fatalf("reopen state: %+v", st)
	}
	v, err := wt2.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	batch := batchTable(t, rows)
	runAllExecutors(t, "reopened", engine.New(batch), engine.New(v), batch.NumBlocks())
}

// TestViewSurvivesCompactionSwap pins snapshot isolation: a view taken
// before compaction keeps answering identically afterwards, even though
// its memory segments were swapped for a file-backed one (and, after a
// merge, the file it pinned was unlinked).
func TestViewSurvivesCompactionSwap(t *testing.T) {
	opts := testOptions()
	opts.MaxSegmentFiles = 1
	wt, err := Open(t.TempDir(), testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer wt.Close()
	rows := genRows(1100, 34)
	appendAll(t, wt, rows)

	v, err := wt.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	e := engine.New(v)
	q := engine.Query{Z: "Z", X: []string{"X"}}
	o := equivOptions(engine.FastMatch, v.NumBlocks())
	before, err := e.Run(q, engine.Target{Uniform: true}, o)
	if err != nil {
		t.Fatal(err)
	}

	// First cycle persists the sealed rows; v2 then pins the resulting
	// file-backed segment.
	if err := wt.CompactNow(); err != nil {
		t.Fatal(err)
	}
	v2, err := wt.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Release()
	before2, err := engine.New(v2).Run(q, engine.Target{Uniform: true}, o)
	if err != nil {
		t.Fatal(err)
	}

	// Second cycle persists more rows and (MaxSegmentFiles=1) merges,
	// unlinking the file v2 still has pinned (and mapped).
	appendAll(t, wt, genRows(600, 35))
	if err := wt.CompactNow(); err != nil {
		t.Fatal(err)
	}

	after, err := engine.New(v).Run(q, engine.Target{Uniform: true}, o)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalResult(t, before) != canonicalResult(t, after) {
		t.Fatal("pinned view's results changed across compaction swaps")
	}
	if v.NumRows() != 1100 {
		t.Fatalf("pinned view grew: %d rows", v.NumRows())
	}
	after2, err := engine.New(v2).Run(q, engine.Target{Uniform: true}, o)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalResult(t, before2) != canonicalResult(t, after2) {
		t.Fatal("view pinning an unlinked segment file changed its results")
	}
}

func TestBootCleansOrphanSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	wt, err := Open(dir, testSchema(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, wt, genRows(600, 36))
	if err := wt.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := wt.Close(); err != nil {
		t.Fatal(err)
	}
	// A crashed compaction leaves a file the manifest never adopted, or a
	// temporary file it never renamed into place.
	orphans := []string{filepath.Join(dir, segFileName(512, 512)), filepath.Join(dir, segFileName(1024, 512)+".tmp")}
	for _, orphan := range orphans {
		if err := os.WriteFile(orphan, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wt2, err := Open(dir, Schema{}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer wt2.Close()
	for _, orphan := range orphans {
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived boot", filepath.Base(orphan))
		}
	}
}
