package ingest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testOptions disables the background compactor so tests drive
// compaction (and simulate crashes by abandoning tables) deterministically.
func testOptions() Options {
	return Options{SealRows: 512, CompactInterval: -1, NoSync: true}
}

// genRows produces deterministic skewed rows: Z with a long-tailed
// domain, X with a small one, and a non-negative measure.
func genRows(n int, seed int64) []Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Row, n)
	for i := range rows {
		z := int(rng.ExpFloat64() * 6)
		if z > 29 {
			z = 29
		}
		rows[i] = mkRow(
			fmt.Sprintf("Z_%d", z),
			fmt.Sprintf("X_%d", rng.Intn(8)),
			float64(rng.Intn(1000))/10,
		)
	}
	return rows
}

// appendAll appends rows in uneven batches, returning the batch count.
func appendAll(t *testing.T, wt *WritableTable, rows []Row) int {
	t.Helper()
	batches := 0
	for len(rows) > 0 {
		n := 137
		if n > len(rows) {
			n = len(rows)
		}
		if _, err := wt.Append(rows[:n]); err != nil {
			t.Fatal(err)
		}
		rows = rows[n:]
		batches++
	}
	return batches
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(t.TempDir(), Schema{}, testOptions()); err == nil {
		t.Fatal("open with empty schema on a fresh dir must fail")
	}
	if _, err := Open(t.TempDir(), Schema{Columns: []string{"a", "a"}}, testOptions()); err == nil {
		t.Fatal("duplicate column must fail")
	}
	if _, err := Open(t.TempDir(), Schema{Columns: []string{"a"}, Measures: []string{"a"}}, testOptions()); err == nil {
		t.Fatal("column/measure name collision must fail")
	}
	// An existing directory opened with an empty schema adopts the
	// manifest's; a corrupt one must be rejected, not panic or open.
	for name, doc := range map[string]string{
		"zero block size":    `{"version":1,"schema":{"columns":["a"],"block_size":0},"seal_rows":512,"persisted_rows":0}`,
		"omitted block size": `{"version":1,"schema":{"columns":["a"]},"seal_rows":512,"persisted_rows":0}`,
		"duplicate columns":  `{"version":1,"schema":{"columns":["a","a"],"block_size":64},"seal_rows":512,"persisted_rows":0}`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		wt, err := Open(dir, Schema{}, testOptions())
		if err == nil {
			wt.Close()
			t.Fatalf("%s: adopting a corrupt manifest must fail", name)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestAppendValidation(t *testing.T) {
	wt, err := Open(t.TempDir(), testSchema(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer wt.Close()
	if _, err := wt.Append(nil); err == nil {
		t.Fatal("empty batch must fail")
	}
	if _, err := wt.Append([]Row{{Values: map[string]string{"Z": "a"}}}); err == nil {
		t.Fatal("missing column must fail")
	}
	if _, err := wt.Append([]Row{{
		Values:   map[string]string{"Z": "a", "X": "b"},
		Measures: map[string]float64{"m": -1},
	}}); err == nil {
		t.Fatal("negative measure must fail")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := wt.Append([]Row{{
			Values:   map[string]string{"Z": "a", "X": "b"},
			Measures: map[string]float64{"m": v},
		}}); err == nil || !errors.Is(err, ErrInvalidRow) {
			t.Fatalf("non-finite measure %g: err = %v, want ErrInvalidRow", v, err)
		}
	}
	if _, err := wt.Append([]Row{{
		Values:   map[string]string{"Z": "a", "X": "b", "Zz": "typo"},
		Measures: map[string]float64{"m": 1},
	}}); err == nil || !errors.Is(err, ErrInvalidRow) {
		t.Fatal("unknown column key must fail (the JSON path must not silently drop data)")
	}
	if wt.Rows() != 0 {
		t.Fatalf("failed appends must leave the table empty, got %d rows", wt.Rows())
	}
}

func TestSealRowsRoundToBlockMultiple(t *testing.T) {
	wt, err := Open(t.TempDir(), testSchema(), Options{SealRows: 100, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer wt.Close()
	if wt.opts.SealRows%wt.schema.BlockSize != 0 {
		t.Fatalf("SealRows %d not a multiple of block size %d", wt.opts.SealRows, wt.schema.BlockSize)
	}
}

func TestViewSnapshotIsolation(t *testing.T) {
	wt, err := Open(t.TempDir(), testSchema(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer wt.Close()
	appendAll(t, wt, genRows(1000, 1))

	v1, err := wt.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Release()
	col1, err := v1.ColumnByName("Z")
	if err != nil {
		t.Fatal(err)
	}
	rows1, card1 := v1.NumRows(), col1.Cardinality()

	// Append more rows including a brand-new dictionary value.
	if _, err := wt.Append([]Row{mkRow("Z_brand_new", "X_0", 1)}); err != nil {
		t.Fatal(err)
	}
	appendAll(t, wt, genRows(700, 2))

	if v1.NumRows() != rows1 || col1.Cardinality() != card1 {
		t.Fatalf("view mutated: rows %d→%d, card %d→%d", rows1, v1.NumRows(), card1, col1.Cardinality())
	}
	if _, ok := col1.Dictionary().Code("Z_brand_new"); ok {
		t.Fatal("old view's dictionary sees a value interned after the snapshot")
	}

	v2, err := wt.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Release()
	if v2.NumRows() != 1701 {
		t.Fatalf("new view has %d rows, want 1701", v2.NumRows())
	}
	col2, _ := v2.ColumnByName("Z")
	if _, ok := col2.Dictionary().Code("Z_brand_new"); !ok {
		t.Fatal("new view's dictionary missing the appended value")
	}
	if v2.Generation() <= v1.Generation() {
		t.Fatalf("generation did not advance: %d <= %d", v2.Generation(), v1.Generation())
	}
}

func TestReopenReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.NoSync = false
	wt, err := Open(dir, testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := genRows(1300, 5)
	appendAll(t, wt, rows)
	acked := wt.Rows()
	// Simulated crash: no Close, no compaction — everything must come
	// back from the WAL alone.
	wt2, err := Open(dir, Schema{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer wt2.Close()
	if wt2.Rows() != acked {
		t.Fatalf("replayed %d rows, want %d", wt2.Rows(), acked)
	}
	st := wt2.Stats()
	if st.ReplayedRows != int64(acked) {
		t.Fatalf("Stats.ReplayedRows = %d, want %d", st.ReplayedRows, acked)
	}
	// The reopened table keeps appending where the log left off.
	if _, err := wt2.Append(genRows(10, 6)); err != nil {
		t.Fatal(err)
	}
	if wt2.Rows() != acked+10 {
		t.Fatalf("rows after reopen+append = %d, want %d", wt2.Rows(), acked+10)
	}
}

func TestReopenSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	wt, err := Open(dir, testSchema(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	wt.Close()
	if _, err := Open(dir, Schema{Columns: []string{"other"}, BlockSize: 64}, testOptions()); err == nil {
		t.Fatal("schema mismatch on reopen must fail")
	}
}

func TestStatsCounters(t *testing.T) {
	wt, err := Open(t.TempDir(), testSchema(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer wt.Close()
	batches := appendAll(t, wt, genRows(1200, 7))
	st := wt.Stats()
	if st.Rows != 1200 || st.AppendedRows != 1200 || st.AppendBatches != int64(batches) {
		t.Fatalf("bad counters: %+v", st)
	}
	if st.SealedRows != 1024 || st.Seals != 2 {
		t.Fatalf("bad seal state (SealRows=512): %+v", st)
	}
	if st.WALBytes == 0 || st.WALFiles != 1 {
		t.Fatalf("bad WAL accounting: %+v", st)
	}
	mr, ok := st.MeasureRanges["m"]
	if !ok || mr.Min < 0 || mr.Max > 100 || mr.Min > mr.Max {
		t.Fatalf("bad measure range: %+v", st.MeasureRanges)
	}
}

func TestMeasureRangesArePerMeasure(t *testing.T) {
	schema := Schema{Columns: []string{"Z"}, Measures: []string{"a", "b"}, BlockSize: 64}
	wt, err := Open(t.TempDir(), schema, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer wt.Close()
	if _, err := wt.Append([]Row{{
		Values:   map[string]string{"Z": "z"},
		Measures: map[string]float64{"a": 100, "b": 5},
	}}); err != nil {
		t.Fatal(err)
	}
	mr := wt.Stats().MeasureRanges
	if mr["a"] != (MeasureRange{Min: 100, Max: 100}) || mr["b"] != (MeasureRange{Min: 5, Max: 5}) {
		t.Fatalf("cross-measure contamination in ranges: %+v", mr)
	}
}

func TestReopenAdoptsStoredBlockSize(t *testing.T) {
	dir := t.TempDir()
	schema := Schema{Columns: []string{"Z", "X"}, Measures: []string{"m"}, BlockSize: 512}
	wt, err := Open(dir, schema, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	wt.Close()
	// Re-open naming the columns but omitting the (non-default) block
	// size: the stored value must be adopted, not defaulted to 256.
	wt2, err := Open(dir, Schema{Columns: []string{"Z", "X"}, Measures: []string{"m"}}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer wt2.Close()
	if wt2.Schema().BlockSize != 512 {
		t.Fatalf("block size = %d, want stored 512", wt2.Schema().BlockSize)
	}
}

func TestCloseStopsBackgroundCompactor(t *testing.T) {
	opts := testOptions()
	opts.CompactInterval = time.Millisecond
	wt, err := Open(t.TempDir(), testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, wt, genRows(600, 8))
	if err := wt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := wt.Append(genRows(1, 9)); err == nil {
		t.Fatal("append after close must fail")
	}
	if _, err := wt.View(); err == nil {
		t.Fatal("view after close must fail")
	}
	if err := wt.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
}
