package engine

import (
	"sort"
	"testing"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/datagen"
	"fastmatch/internal/histogram"
)

// benchHists keeps the benchmarks' accumulated histograms live, so the
// compiler cannot drop the passes that build them.
var benchHists []*histogram.Histogram

// BenchmarkScanReference measures the exact scan against the references
// the tests hold it to, over the 1M-row FLIGHTS table behind each storage
// backend (the table of the root package's BenchmarkScanKernels):
//
//   - "scalar" and "kernel": one full pass of the per-row reference loop
//     (refKernel) and of the kernels, accumulation only, for the grouped
//     count (Origin × DepartureHour, where no block is prunable) and a
//     selective predicate query (the three rarest Origin values);
//   - "skip-off" and "skip": a Scan of the predicate query through the
//     plan without its skip masks (withoutSkipMasks) and through the
//     plan itself, where the masks prune most blocks.
func BenchmarkScanReference(b *testing.B) {
	ds, err := datagen.Flights(1_000_000, 5, colstore.DefaultBlockSize)
	if err != nil {
		b.Fatal(err)
	}
	tbl := ds.Table
	origin, err := tbl.ColumnByName("Origin")
	if err != nil {
		b.Fatal(err)
	}
	counts := make([]int, origin.Cardinality())
	for _, code := range origin.Codes(0, tbl.NumRows()) {
		counts[code]++
	}
	byCount := make([]int, 0, len(counts))
	for v, n := range counts {
		if n > 0 {
			byCount = append(byCount, v)
		}
	}
	sort.Slice(byCount, func(i, j int) bool { return counts[byCount[i]] < counts[byCount[j]] })
	rare := byCount[:3]

	backends := map[string]*Engine{
		"inmem":  New(tbl),
		"mmap":   New(mmapTwin(b, tbl)),
		"ingest": New(ingestTwin(b, tbl)),
	}
	for _, backend := range []string{"inmem", "mmap", "ingest"} {
		eng := backends[backend]
		col, err := eng.Source().ColumnByName("Origin")
		if err != nil {
			b.Fatal(err)
		}
		preds := make([]bitmap.Predicate, len(rare))
		for i, v := range rare {
			code, ok := col.Dictionary().Code(origin.Dictionary().Value(uint32(v)))
			if !ok {
				b.Fatalf("%s: Origin value %d missing", backend, v)
			}
			preds[i] = &bitmap.ValuePred{Column: "Origin", Code: code}
		}
		queries := map[string]Query{
			"grouped-count": {Z: "Origin", X: []string{"DepartureHour"}},
			"predicate":     {CandidatePreds: preds, X: []string{"DepartureHour"}},
		}
		plans := map[string]*Plan{}
		for name, q := range queries {
			if plans[name], err = eng.Prepare(q); err != nil {
				b.Fatal(err)
			}
		}
		src := eng.Source()
		for _, name := range []string{"grouped-count", "predicate"} {
			p := plans[name]
			b.Run(backend+"/"+name+"/scalar", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ref := newRefKernel(p, false)
					for blk := 0; blk < src.NumBlocks(); blk++ {
						ref.block(src.BlockSpan(blk))
					}
					benchHists = ref.hists
				}
			})
			b.Run(backend+"/"+name+"/kernel", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kern := p.newKernel(false)
					for blk := 0; blk < src.NumBlocks(); blk++ {
						kern.block(src.BlockSpan(blk))
					}
					benchHists = kern.fold()
				}
			})
		}
		p := plans["predicate"]
		target, err := p.ResolveTarget(Target{Uniform: true}, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []struct {
			name string
			plan *Plan
		}{{"skip-off", withoutSkipMasks(p)}, {"skip", p}} {
			b.Run(backend+"/predicate/"+v.name, func(b *testing.B) {
				var pruned int64
				for i := 0; i < b.N; i++ {
					res, err := v.plan.RunWithTarget(target, Options{Params: testParams(), Executor: Scan})
					if err != nil {
						b.Fatal(err)
					}
					if !res.Exact {
						b.Fatal("scan result not exact")
					}
					pruned += res.IO.BlocksPruned
				}
				b.ReportMetric(float64(pruned)/float64(b.N), "blocks_pruned/op")
			})
		}
	}
}
