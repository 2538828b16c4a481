// BenchmarkColdStart measures time-to-first-query for every way of
// loading a dataset: CSV re-parse (with the mandatory shuffle), the heap
// snapshot open (ReadSnapshotFile: one aligned read, full verification),
// and the zero-copy mmap open. Baseline numbers live in BENCH_mmap.json;
// run with -benchmem, since the heap open's cost is mostly its buffer.
// The mmap open still scales with rows — it validates every code against
// its dictionary in one sequential pass — but with a far smaller constant
// than the heap open (no copy, measure pages untouched); the acceptance
// floor is ≥ 10x over CSV at 1M rows.
package fastmatch_test

import (
	"fmt"
	"os"
	"testing"

	"fastmatch/internal/colstore"
	"fastmatch/internal/datagen"
)

func writeColdStartFixtures(b *testing.B, rows int) (csvPath, snapPath string) {
	b.Helper()
	dir := b.TempDir()
	ds, err := datagen.ByName("flights", rows, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	csvPath = fmt.Sprintf("%s/flights_%d.csv", dir, rows)
	f, err := os.Create(csvPath)
	if err != nil {
		b.Fatal(err)
	}
	if err := colstore.WriteCSV(ds.Table, f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	snapPath = fmt.Sprintf("%s/flights_%d.fms", dir, rows)
	if err := colstore.WriteSnapshotFile(ds.Table, snapPath); err != nil {
		b.Fatal(err)
	}
	return csvPath, snapPath
}

func BenchmarkColdStart(b *testing.B) {
	for _, rows := range []int{100_000, 1_000_000} {
		csvPath, snapPath := writeColdStartFixtures(b, rows)
		b.Run(fmt.Sprintf("csv/rows=%d", rows), func(b *testing.B) {
			seed := int64(1)
			for i := 0; i < b.N; i++ {
				f, err := os.Open(csvPath)
				if err != nil {
					b.Fatal(err)
				}
				tbl, err := colstore.ReadCSV(f, colstore.CSVOptions{ShuffleSeed: &seed, DropInvalid: true})
				f.Close()
				if err != nil {
					b.Fatal(err)
				}
				if tbl.NumRows() != rows {
					b.Fatalf("parsed %d rows", tbl.NumRows())
				}
			}
		})
		b.Run(fmt.Sprintf("heap/rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := colstore.ReadSnapshotFile(snapPath); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("mmap/rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mt, err := colstore.OpenMmapFile(snapPath)
				if err != nil {
					b.Fatal(err)
				}
				if mt.NumRows() != rows {
					b.Fatalf("mapped %d rows", mt.NumRows())
				}
				mt.Close()
			}
		})
	}
}
