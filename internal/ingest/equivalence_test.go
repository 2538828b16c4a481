package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
)

// The acceptance suite: query results over an ingested (and compacted)
// WritableTable must be byte-identical — TopK, histograms, Pruned,
// RunStats, and IOStats — to the same rows batch-loaded through the
// existing inmem Builder and to a batch-written snapshot served by
// the inmem and mmap backends, for all five executors. The ingest path
// preserves the block grid (segments are block-aligned), the dictionary
// code assignment (first-appearance interning, same as AppendRow), and
// the bitmap index bits (copied from the table's block summary, scanned
// for the tail), so any divergence is an ingest bug, not sampling noise.

// batchTable loads rows through the batch Builder, unshuffled — the
// reference the live path must match exactly.
func batchTable(t testing.TB, rows []Row) *colstore.Table {
	t.Helper()
	b := colstore.NewBuilder(64)
	if _, err := b.AddColumn("Z"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddColumn("X"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddMeasure("m"); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := b.AppendRow(r.Values, r.Measures); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func ingestTable(t testing.TB, rows []Row, opts Options) *WritableTable {
	t.Helper()
	wt, err := Open(t.TempDir(), testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wt.Close() })
	left := rows
	for len(left) > 0 {
		n := 137
		if n > len(left) {
			n = len(left)
		}
		if _, err := wt.Append(left[:n]); err != nil {
			t.Fatal(err)
		}
		left = left[n:]
	}
	return wt
}

func equivParams() core.Params {
	return core.Params{
		K: 3, Epsilon: 0.10, Delta: 0.05, Sigma: 0.002,
		Stage1Samples: 5_000, Metric: histogram.MetricL1,
	}
}

func equivOptions(exec engine.Executor, nb int) engine.Options {
	return engine.Options{
		Params:   equivParams(),
		Executor: exec,
		// One marking window spans all blocks, as in the engine's
		// conformance matrix.
		Lookahead:  nb + 1,
		StartBlock: -1,
		Seed:       11,
		Workers:    4,
	}
}

func allExecutors() []engine.Executor {
	return []engine.Executor{engine.Scan, engine.ParallelScan, engine.ScanMatch, engine.SyncMatch, engine.FastMatch}
}

// canonicalResult strips wall-clock Duration and renders the rest as
// JSON so equality is byte equality.
func canonicalResult(t testing.TB, res *engine.Result) string {
	t.Helper()
	c := *res
	c.Duration = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func runAllExecutors(t *testing.T, name string, ref, got *engine.Engine, nb int) {
	t.Helper()
	q := engine.Query{Z: "Z", X: []string{"X"}}
	for _, target := range []engine.Target{{Uniform: true}, {Candidate: "Z_0"}} {
		for _, exec := range allExecutors() {
			a, err := ref.Run(q, target, equivOptions(exec, nb))
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.Run(q, target, equivOptions(exec, nb))
			if err != nil {
				t.Fatal(err)
			}
			if a.IO != b.IO {
				t.Fatalf("%s/%v/%+v: IOStats diverge: batch %+v, ingest %+v", name, exec, target, a.IO, b.IO)
			}
			ca, cb := canonicalResult(t, a), canonicalResult(t, b)
			if ca != cb {
				t.Fatalf("%s/%v/%+v: results diverge:\nbatch:  %s\ningest: %s", name, exec, target, ca, cb)
			}
		}
	}
}

func TestIngestMatchesBatchLoaded(t *testing.T) {
	rows := genRows(12_000, 21) // not a seal multiple: a live tail remains
	batch := batchTable(t, rows)

	t.Run("mmap-compaction", func(t *testing.T) {
		wt := ingestTable(t, rows, testOptions())
		if err := wt.CompactNow(); err != nil {
			t.Fatal(err)
		}
		v, err := wt.View()
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		if v.NumRows() != batch.NumRows() || v.NumBlocks() != batch.NumBlocks() {
			t.Fatalf("shape diverges: %d/%d rows, %d/%d blocks",
				v.NumRows(), batch.NumRows(), v.NumBlocks(), batch.NumBlocks())
		}
		runAllExecutors(t, "mmap-compaction", engine.New(batch), engine.New(v), batch.NumBlocks())
	})
}

func TestIngestMatchesSnapshotBackends(t *testing.T) {
	rows := genRows(6_000, 22)
	batch := batchTable(t, rows)
	snapPath := filepath.Join(t.TempDir(), "batch.fms")
	if err := colstore.WriteSnapshotFile(batch, snapPath); err != nil {
		t.Fatal(err)
	}
	snapHeap, err := colstore.ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	snapMmap, err := colstore.OpenMmapFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer snapMmap.Close()

	wt := ingestTable(t, rows, testOptions())
	if err := wt.CompactNow(); err != nil {
		t.Fatal(err)
	}
	v, err := wt.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	ingestEng := engine.New(v)
	runAllExecutors(t, "vs-snapshot-inmem", engine.New(snapHeap), ingestEng, batch.NumBlocks())
	runAllExecutors(t, "vs-snapshot-mmap", engine.New(snapMmap), ingestEng, batch.NumBlocks())
}

// TestCompactedFileIsByteIdenticalToBatchSnapshot pins the strongest
// form of equivalence: with every row sealed, the single compacted
// segment file and a batch-written snapshot of the same rows are the
// same bytes.
func TestCompactedFileIsByteIdenticalToBatchSnapshot(t *testing.T) {
	rows := genRows(2048, 23) // exactly 4 × SealRows: no tail
	opts := testOptions()
	wt := ingestTable(t, rows, opts)
	if err := wt.CompactNow(); err != nil {
		t.Fatal(err)
	}
	st := wt.Stats()
	if st.PersistedRows != 2048 || st.SegmentFiles != 1 {
		t.Fatalf("expected one file covering all rows, got %+v", st)
	}
	segBytes, err := os.ReadFile(filepath.Join(wt.Dir(), segFileName(0, 2048)))
	if err != nil {
		t.Fatal(err)
	}
	var batchBuf bytes.Buffer
	if err := colstore.WriteSnapshot(batchTable(t, rows), &batchBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(segBytes, batchBuf.Bytes()) {
		t.Fatalf("compacted segment file (%d bytes) differs from batch snapshot (%d bytes)",
			len(segBytes), batchBuf.Len())
	}
}

// readerOnly hides TableView's block statistics, so bitmap.Build runs
// the block-summary builder over the raw view instead of adopting the
// view's presence words.
type readerOnly struct{ colstore.Reader }

// checkViewStats holds a view's block statistics to a scan of its own
// rows: for every column, PresenceWords equals the scanned presence bits
// word for word and the index Build adopts from them equals the index
// the builder makes over the raw view; every measure's range is the
// exact block min/max for the sealed blocks and unknown for the
// unsealed tail.
func checkViewStats(t *testing.T, stage string, v *TableView, sealed int) {
	t.Helper()
	stats := v.BlockStats()
	nb := v.NumBlocks()
	wpv := (nb + 63) / 64
	for _, column := range v.Columns() {
		col, err := v.ColumnByName(column)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, col.Cardinality()*wpv)
		for b := 0; b < nb; b++ {
			lo, hi := v.BlockSpan(b)
			for _, code := range col.Codes(lo, hi) {
				want[int(code)*wpv+b/64] |= 1 << (b % 64)
			}
		}
		words, gotWPV, ok := stats.PresenceWords(column)
		if !ok || gotWPV != wpv || len(words) != len(want) {
			t.Fatalf("%s/%s: presence declined or misshapen: ok=%v wpv=%d/%d len=%d/%d",
				stage, column, ok, gotWPV, wpv, len(words), len(want))
		}
		for i := range want {
			if words[i] != want[i] {
				t.Fatalf("%s/%s: presence word %d (value %d) = %#x, scan %#x", stage, column, i, i/max(wpv, 1), words[i], want[i])
			}
		}
		copied, err := bitmap.Build(v, column)
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := bitmap.Build(readerOnly{v}, column)
		if err != nil {
			t.Fatal(err)
		}
		if copied.NumValues() != scanned.NumValues() || copied.NumBlocks() != scanned.NumBlocks() {
			t.Fatalf("%s/%s: index shape diverges: %d/%d values, %d/%d blocks", stage, column,
				copied.NumValues(), scanned.NumValues(), copied.NumBlocks(), scanned.NumBlocks())
		}
		for val := 0; val < scanned.NumValues(); val++ {
			a, _ := copied.ValueBitset(uint32(val))
			b, _ := scanned.ValueBitset(uint32(val))
			for w := 0; w < wpv; w++ {
				if a.Word(w) != b.Word(w) {
					t.Fatalf("%s/%s: index word (%d, %d) diverges", stage, column, val, w)
				}
			}
		}
	}
	for _, name := range v.MeasureNames() {
		m, err := v.MeasureByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < nb; b++ {
			lo, hi, ok := stats.MeasureRange(name, b)
			if b >= sealed {
				if ok {
					t.Fatalf("%s/%s: tail block %d has a known range", stage, name, b)
				}
				continue
			}
			blo, bhi := v.BlockSpan(b)
			wantLo, wantHi := math.Inf(1), math.Inf(-1)
			for _, x := range m.Values(blo, bhi) {
				wantLo, wantHi = math.Min(wantLo, x), math.Max(wantHi, x)
			}
			if !ok || lo != wantLo || hi != wantHi {
				t.Fatalf("%s/%s: sealed block %d range [%g, %g] ok=%v, want [%g, %g]", stage, name, b, lo, hi, ok, wantLo, wantHi)
			}
		}
	}
}

// TestViewIndexMatchesScanBuilt checks every generation's view against a
// scan of its own rows (see checkViewStats) across 37-block seals that
// end inside a presence word, a persist and a merge compaction, and a
// reopen from segment files plus the WAL, always with an unsealed tail.
// Every earlier view is re-checked at the end, after later views have
// extended the shared summary past its sealed blocks and interned
// values it never saw.
func TestViewIndexMatchesScanBuilt(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.SealRows = 37 * 64
	opts.MaxSegmentFiles = 1
	wt, err := Open(dir, testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	type checked struct {
		stage  string
		v      *TableView
		sealed int
	}
	var views []checked
	check := func(stage string) {
		v, err := wt.View()
		if err != nil {
			t.Fatal(err)
		}
		c := checked{stage, v, wt.Stats().SealedRows / 64}
		checkViewStats(t, c.stage, c.v, c.sealed)
		views = append(views, c)
	}
	appendChecked := func(stage string, batches int, seed int64) {
		for i := 0; i < batches; i++ {
			rows := genRows(611, seed+int64(i))
			rows[0] = mkRow(fmt.Sprintf("Z_new_%d_%d", seed, i), "X_0", 1)
			if _, err := wt.Append(rows); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s/%d", stage, i))
		}
	}
	check("empty")
	appendChecked("seal", 9, 100)
	if err := wt.CompactNow(); err != nil { // persist
		t.Fatal(err)
	}
	check("persisted")
	appendChecked("after-persist", 5, 200)
	if err := wt.CompactNow(); err != nil { // persist, then merge two files
		t.Fatal(err)
	}
	if st := wt.Stats(); st.SegmentFiles != 1 || st.Compactions != 3 {
		t.Fatalf("want one merged file after three commits: %+v", st)
	}
	check("merged")
	appendChecked("after-merge", 3, 300)
	if err := wt.Close(); err != nil {
		t.Fatal(err)
	}
	if wt, err = Open(dir, Schema{}, opts); err != nil {
		t.Fatal(err)
	}
	defer wt.Close()
	if st := wt.Stats(); st.ReplayedRows == 0 || st.Rows == st.SealedRows {
		t.Fatalf("reopen should replay WAL rows and keep a tail: %+v", st)
	}
	check("reopened")
	appendChecked("after-reopen", 4, 400)
	for _, c := range views {
		checkViewStats(t, "recheck/"+c.stage, c.v, c.sealed)
	}
}

// TestConcurrentIngestAndQuery hammers a table with concurrent appends,
// queries, compactions, and stats reads (run with -race), then checks
// the drained table answers exactly like a batch load of the same rows.
func TestConcurrentIngestAndQuery(t *testing.T) {
	const batchRows = 137
	const batchCount = 30
	all := genRows(batchRows*batchCount, 25)
	opts := testOptions()
	wt, err := Open(t.TempDir(), testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer wt.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(1)
	go func() { // appender
		defer wg.Done()
		for i := 0; i < batchCount; i++ {
			if _, err := wt.Append(all[i*batchRows : (i+1)*batchRows]); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < 2; g++ { // queriers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				v, err := wt.View()
				if err != nil {
					errs <- err
					return
				}
				if v.NumRows() == 0 {
					v.Release()
					continue
				}
				e := engine.New(v)
				o := equivOptions(engine.FastMatch, v.NumBlocks())
				if _, err := e.Run(engine.Query{Z: "Z", X: []string{"X"}}, engine.Target{Uniform: true}, o); err != nil {
					errs <- fmt.Errorf("query under ingest: %w", err)
				}
				_ = wt.Stats()
				v.Release()
			}
		}()
	}
	wg.Add(1)
	go func() { // compactor
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := wt.CompactNow(); err != nil {
				errs <- fmt.Errorf("compact under ingest: %w", err)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := wt.CompactNow(); err != nil {
		t.Fatal(err)
	}
	v, err := wt.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	batch := batchTable(t, all)
	runAllExecutors(t, "drained", engine.New(batch), engine.New(v), batch.NumBlocks())
}

// TestCrashRecoveryServesAckedRowsExactly simulates kill -9 after a
// compaction plus further acked appends plus a torn in-flight record:
// reopening must serve exactly the acked rows, byte-identical to a batch
// load of them.
func TestCrashRecoveryServesAckedRowsExactly(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.NoSync = false
	wt, err := Open(dir, testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	all := genRows(1500, 26)
	for i := 0; i < 1300; i += 130 {
		if _, err := wt.Append(all[i : i+130]); err != nil {
			t.Fatal(err)
		}
	}
	if err := wt.CompactNow(); err != nil { // persists the sealed 1024
		t.Fatal(err)
	}
	if _, err := wt.Append(all[1300:1500]); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close. Inject a torn record as if a 1501st-row batch was
	// half-written when the process died.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range entries {
		if _, ok := parseWalFileName(e.Name()); ok && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatal("no WAL file found")
	}
	f, err := os.OpenFile(filepath.Join(dir, newest), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0x99}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	wt2, err := Open(dir, Schema{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer wt2.Close()
	if wt2.Rows() != 1500 {
		t.Fatalf("recovered %d rows, want exactly the 1500 acked", wt2.Rows())
	}
	v, err := wt2.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	batch := batchTable(t, all)
	runAllExecutors(t, "post-crash", engine.New(batch), engine.New(v), batch.NumBlocks())
}
