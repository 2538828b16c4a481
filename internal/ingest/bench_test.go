package ingest

import (
	"testing"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/engine"
)

// BenchmarkIngest measures the live-ingestion hot paths; the committed
// baseline lives in BENCH_ingest.json at the repo root. Append
// benchmarks report rows/s via b.N rows per iteration batches;
// query-under-ingest interleaves appends with engine runs over fresh
// views (the per-generation view and the index it builds, whose words
// the index adopts, are the thing being measured, on top of the query
// itself); view-index isolates that index build with its allocations.

func benchRows(n int) []Row {
	return genRows(n, 99)
}

func benchAppend(b *testing.B, sync bool) {
	opts := Options{SealRows: 16384, CompactInterval: -1, NoSync: !sync}
	wt, err := Open(b.TempDir(), testSchema(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer wt.Close()
	const batch = 1000
	rows := benchRows(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wt.Append(rows); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkIngestAppendNoSync(b *testing.B) { benchAppend(b, false) }
func BenchmarkIngestAppendSync(b *testing.B)   { benchAppend(b, true) }

// BenchmarkIngestQueryUnderIngest: each iteration appends a batch (new
// generation) and answers a FastMatch query over a fresh view — the
// worst case for view/index maintenance, since nothing is amortized
// across same-generation queries.
func BenchmarkIngestQueryUnderIngest(b *testing.B) {
	opts := Options{SealRows: 4096, CompactInterval: -1, NoSync: true}
	wt, err := Open(b.TempDir(), testSchema(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer wt.Close()
	if _, err := wt.Append(benchRows(100_000)); err != nil {
		b.Fatal(err)
	}
	if err := wt.CompactNow(); err != nil {
		b.Fatal(err)
	}
	batch := benchRows(500)
	q := engine.Query{Z: "Z", X: []string{"X"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wt.Append(batch); err != nil {
			b.Fatal(err)
		}
		v, err := wt.View()
		if err != nil {
			b.Fatal(err)
		}
		o := equivOptions(engine.FastMatch, v.NumBlocks())
		if _, err := engine.New(v).Run(q, engine.Target{Uniform: true}, o); err != nil {
			b.Fatal(err)
		}
		v.Release()
	}
}

// BenchmarkIngestViewIndex: each iteration takes a fresh view of a
// 200k-row table (3,125 blocks of 64 rows, 30 Z values) with an unsealed
// tail and builds its index on Z — the
// summary's sealed words masked into fresh words, the tail built on top,
// and the index adopting them in place.
func BenchmarkIngestViewIndex(b *testing.B) {
	opts := Options{SealRows: 4096, CompactInterval: -1, NoSync: true}
	wt, err := Open(b.TempDir(), testSchema(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer wt.Close()
	if _, err := wt.Append(benchRows(200_000)); err != nil {
		b.Fatal(err)
	}
	build := func() {
		v, err := wt.View()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bitmap.Build(v, "Z"); err != nil {
			b.Fatal(err)
		}
	}
	build() // extends the summary over the sealed blocks, outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
}
