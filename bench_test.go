// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Each benchmark measures end-to-end query latency under the
// same configuration the cmd/experiments harness uses, at a reduced
// default dataset size so `go test -bench=.` stays tractable; set
// FASTMATCH_BENCH_ROWS to scale up (cmd/experiments defaults to 4M).
package fastmatch_test

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/datagen"
	"fastmatch/internal/engine"
	"fastmatch/internal/expt"
	"fastmatch/internal/histogram"
	"fastmatch/internal/ingest"
	"fastmatch/internal/stats"
)

var (
	benchOnce sync.Once
	benchWS   *expt.Workspace
	benchErr  error
)

func benchRows() int {
	if s := os.Getenv("FASTMATCH_BENCH_ROWS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 400_000
}

func workspace(b *testing.B) *expt.Workspace {
	b.Helper()
	benchOnce.Do(func() {
		benchWS, benchErr = expt.NewWorkspace(expt.Config{
			Rows: benchRows(), Seed: 1, Reps: 1,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchWS
}

func runQuery(b *testing.B, qid string, exec engine.Executor, ov expt.RunOverrides) {
	b.Helper()
	w := workspace(b)
	b.ResetTimer()
	var tuples int64
	for i := 0; i < b.N; i++ {
		ov.Seed = int64(i + 1)
		res, err := w.Run(qid, exec, ov)
		if err != nil {
			b.Fatal(err)
		}
		tuples += res.IO.TuplesRead
	}
	b.ReportMetric(float64(tuples)/float64(b.N), "tuples/op")
}

// BenchmarkTable4 regenerates Table 4: per-query latency of each executor.
// Speedups are the Scan row's time divided by each approximate row's time.
func BenchmarkTable4(b *testing.B) {
	for _, q := range expt.Queries {
		for _, exec := range []engine.Executor{engine.Scan, engine.ScanMatch, engine.SyncMatch, engine.FastMatch} {
			b.Run(q.ID+"/"+exec.String(), func(b *testing.B) {
				runQuery(b, q.ID, exec, expt.RunOverrides{})
			})
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8: latency vs ε (FastMatch and
// ScanMatch series on a representative query per dataset).
func BenchmarkFigure8(b *testing.B) {
	for _, qid := range []string{"flights-q1", "taxi-q1", "police-q2"} {
		for _, eps := range []float64{0.10, 0.20, 0.30, 0.50} {
			for _, exec := range []engine.Executor{engine.ScanMatch, engine.FastMatch} {
				b.Run(qid+"/eps="+strconv.FormatFloat(eps, 'g', -1, 64)+"/"+exec.String(), func(b *testing.B) {
					runQuery(b, qid, exec, expt.RunOverrides{Epsilon: eps})
				})
			}
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9: Δd vs ε. Time is incidental; the
// reported "deltaD" metric is the figure's y-axis.
func BenchmarkFigure9(b *testing.B) {
	for _, qid := range []string{"flights-q1", "police-q2"} {
		for _, eps := range []float64{0.10, 0.20, 0.30, 0.50} {
			b.Run(qid+"/eps="+strconv.FormatFloat(eps, 'g', -1, 64), func(b *testing.B) {
				w := workspace(b)
				var sum float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := w.Run(qid, engine.FastMatch,
						expt.RunOverrides{Epsilon: eps, Seed: int64(i + 1)})
					if err != nil {
						b.Fatal(err)
					}
					dd, err := expt.DeltaD(w, qid, res)
					if err != nil {
						b.Fatal(err)
					}
					sum += dd
				}
				b.ReportMetric(sum/float64(b.N), "deltaD")
			})
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10: FastMatch latency vs lookahead.
func BenchmarkFigure10(b *testing.B) {
	for _, qid := range []string{"flights-q1", "taxi-q1", "police-q3"} {
		for _, la := range []int{8, 64, 512, 2048} {
			b.Run(qid+"/lookahead="+strconv.Itoa(la), func(b *testing.B) {
				runQuery(b, qid, engine.FastMatch, expt.RunOverrides{Lookahead: la})
			})
		}
	}
}

// BenchmarkFigure11 regenerates Figure 11: latency vs δ.
func BenchmarkFigure11(b *testing.B) {
	for _, qid := range []string{"flights-q1", "police-q2"} {
		for _, delta := range []float64{0.005, 0.01, 0.02} {
			b.Run(qid+"/delta="+strconv.FormatFloat(delta, 'g', -1, 64), func(b *testing.B) {
				runQuery(b, qid, engine.FastMatch, expt.RunOverrides{Delta: delta})
			})
		}
	}
}

// BenchmarkTable5 regenerates Table 5: exact top-k computation under L1 vs
// L2 on the FLIGHTS queries, reporting the overlap fraction.
func BenchmarkTable5(b *testing.B) {
	w := workspace(b)
	b.ResetTimer()
	var overlap float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.Table5(w)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.Overlap
		}
		overlap = sum / float64(len(rows))
	}
	b.ReportMetric(overlap, "avg-overlap")
}

// BenchmarkSigmaZero regenerates the §5.4 σ=0 pathology measurement.
func BenchmarkSigmaZero(b *testing.B) {
	for _, mode := range []struct {
		name string
		ov   expt.RunOverrides
	}{
		{"default-sigma", expt.RunOverrides{}},
		{"sigma=0", expt.RunOverrides{SigmaZero: true, MaxRounds: 16}},
	} {
		b.Run("taxi-q1/"+mode.name, func(b *testing.B) {
			runQuery(b, "taxi-q1", engine.FastMatch, mode.ov)
		})
	}
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationBitmapProbe compares Algorithm 3's word-chunked
// AnyActive marking against Algorithm 2's per-block probing over a large
// candidate set — the cache-behaviour contrast of §4.2 Challenge 4.
func BenchmarkAblationBitmapProbe(b *testing.B) {
	ds, err := datagen.Taxi(200_000, 3, 32)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := bitmap.Build(ds.Table, "Location")
	if err != nil {
		b.Fatal(err)
	}
	active := make([]uint32, 0, 500)
	for v := 0; v < 500; v++ {
		active = append(active, uint32(v*15))
	}
	nb := idx.NumBlocks()
	b.Run("chunked-lookahead", func(b *testing.B) {
		mark := make([]bool, 1024)
		for i := 0; i < b.N; i++ {
			for start := 0; start < nb; start += len(mark) {
				idx.MarkAnyActive(active, start, mark)
			}
		}
	})
	b.Run("per-block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for blk := 0; blk < nb; blk++ {
				idx.BlockAnyActive(active, blk)
			}
		}
	})
}

// BenchmarkAblationMultipleTesting compares Holm-Bonferroni against the
// plain Bonferroni correction on stage-1-shaped P-value batches: both cost
// about the same, while HB rejects strictly more (the paper's power
// argument for preferring it).
func BenchmarkAblationMultipleTesting(b *testing.B) {
	pvals := make([]float64, 7641)
	for i := range pvals {
		pvals[i] = float64(i%1000) / 1000
	}
	b.Run("holm-bonferroni", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.HolmBonferroni(pvals, 0.0033)
		}
	})
	b.Run("bonferroni", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.Bonferroni(pvals, 0.0033)
		}
	})
}

// BenchmarkAblationBlockSize measures the block-granularity tradeoff:
// skippability (small blocks) vs per-block overhead (large blocks).
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, bs := range []int{16, 64, 256} {
		b.Run("block="+strconv.Itoa(bs), func(b *testing.B) {
			ds, err := datagen.Flights(200_000, 5, bs)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := engine.New(ds.Table).Prepare(engine.Query{Z: "Origin", X: []string{"DepartureHour"}})
			if err != nil {
				b.Fatal(err)
			}
			target, err := plan.ResolveTarget(engine.Target{Uniform: true}, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := engine.Options{
					Params:   coreParamsForBench(ds.Table.NumRows()),
					Executor: engine.FastMatch, Lookahead: 1024,
					StartBlock: -1, Seed: int64(i + 1),
				}
				if _, err := plan.RunWithTarget(target, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// coreParamsForBench builds the paper-default parameters used by the
// ablation benches.
func coreParamsForBench(rows int) (p core.Params) {
	p.K = 10
	p.Epsilon = 0.25
	p.Delta = 0.01
	p.Sigma = 0.0015
	p.Stage1Samples = rows / 40
	p.Metric = histogram.MetricL1
	return p
}

// --- Parallel execution benchmarks ---

var (
	pscanOnce sync.Once
	pscanPlan *engine.Plan
	pscanTgt  *histogram.Histogram
	pscanErr  error
)

// pscanSetup builds the 1M-row datagen table and plan shared by the
// parallel-scan benchmarks (generated once, outside the timed region).
func pscanSetup(b *testing.B) (*engine.Plan, *histogram.Histogram) {
	b.Helper()
	pscanOnce.Do(func() {
		ds, err := datagen.Flights(1_000_000, 5, 64)
		if err != nil {
			pscanErr = err
			return
		}
		e := engine.New(ds.Table)
		pscanPlan, pscanErr = e.Prepare(engine.Query{Z: "Origin", X: []string{"DepartureHour"}})
		if pscanErr != nil {
			return
		}
		pscanTgt, pscanErr = pscanPlan.ResolveTarget(engine.Target{Uniform: true}, 0)
	})
	if pscanErr != nil {
		b.Fatal(pscanErr)
	}
	return pscanPlan, pscanTgt
}

// BenchmarkParallelScan measures the partitioned exact pass at 1/2/4/8
// workers against the sequential Scan baseline on a 1M-row datagen table.
// Results are byte-identical across rows (see TestParallelScanMatchesScan);
// only the wall clock changes.
func BenchmarkParallelScan(b *testing.B) {
	p, target := pscanSetup(b)
	params := coreParamsForBench(1_000_000)
	run := func(b *testing.B, exec engine.Executor, workers int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := p.RunWithTarget(target, engine.Options{
				Params: params, Executor: exec, Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Exact {
				b.Fatal("scan result not exact")
			}
		}
	}
	b.Run("Scan", func(b *testing.B) { run(b, engine.Scan, 0) })
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			run(b, engine.ParallelScan, workers)
		})
	}
}

// BenchmarkConcurrentQueries measures throughput of one shared Engine
// serving FastMatch queries from GOMAXPROCS goroutines — the serving
// scenario the concurrent-safe Engine exists for.
func BenchmarkConcurrentQueries(b *testing.B) {
	p, target := pscanSetup(b)
	params := coreParamsForBench(1_000_000)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// b.Fatal must not run on RunParallel worker goroutines; b.Error
		// + return is the supported failure path here.
		for pb.Next() {
			res, err := p.RunWithTarget(target, engine.Options{
				Params: params, Executor: engine.FastMatch,
				Lookahead: 1024, StartBlock: -1, Seed: seq.Add(1),
			})
			if err != nil {
				b.Error(err)
				return
			}
			if len(res.TopK) == 0 {
				b.Error("empty topk")
				return
			}
		}
	})
}

// --- Scan-kernel and block-skipping benchmarks ---

var (
	kernOnce sync.Once
	kernSrcs map[string]colstore.Reader
	kernPred []bitmap.Predicate
	kernErr  error
)

// kernelBenchSetup builds the 1M-row table behind every storage backend
// (generated once, outside the timed region) and picks the three rarest
// Origin values as a selective predicate set — rare values appear in few
// blocks, so the candidate-union complement prunes most of the table.
func kernelBenchSetup(b *testing.B) (map[string]colstore.Reader, []bitmap.Predicate) {
	b.Helper()
	kernOnce.Do(func() {
		ds, err := datagen.Flights(1_000_000, 5, 64)
		if err != nil {
			kernErr = err
			return
		}
		tbl := ds.Table
		kernSrcs = map[string]colstore.Reader{"inmem": tbl}

		dir, err := os.MkdirTemp("", "fastmatch-kern-bench")
		if err != nil {
			kernErr = err
			return
		}
		// The temp dir outlives the benchmark process by design: b.Cleanup
		// inside sync.Once would tear the shared backends down after the
		// first sub-benchmark.
		path := dir + "/kern.fms"
		if kernErr = colstore.WriteSnapshotFile(tbl, path); kernErr != nil {
			return
		}
		mt, err := colstore.OpenMmapFile(path)
		if err != nil {
			kernErr = err
			return
		}
		kernSrcs["mmap"] = mt

		wt, err := ingest.Open(dir+"/ingest", ingest.Schema{
			Columns:   tbl.Columns(),
			Measures:  tbl.MeasureNames(),
			BlockSize: tbl.BlockSize(),
		}, ingest.Options{SealRows: 1 << 16, NoSync: true, CompactInterval: -1})
		if err != nil {
			kernErr = err
			return
		}
		cols := make([]colstore.ColumnReader, 0, len(tbl.Columns()))
		for _, name := range tbl.Columns() {
			c, err := tbl.ColumnByName(name)
			if err != nil {
				kernErr = err
				return
			}
			cols = append(cols, c)
		}
		batch := make([]ingest.Row, 0, 4096)
		for row := 0; row < tbl.NumRows(); row++ {
			r := ingest.Row{Values: make(map[string]string, len(cols))}
			for _, c := range cols {
				r.Values[c.ColumnName()] = c.Dictionary().Value(c.Code(row))
			}
			if batch = append(batch, r); len(batch) == cap(batch) {
				if _, kernErr = wt.Append(batch); kernErr != nil {
					return
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			if _, kernErr = wt.Append(batch); kernErr != nil {
				return
			}
		}
		view, err := wt.View()
		if err != nil {
			kernErr = err
			return
		}
		kernSrcs["ingest"] = view

		// Rarest Origin values -> most selective predicates.
		col, err := tbl.ColumnByName("Origin")
		if err != nil {
			kernErr = err
			return
		}
		counts := make([]int, col.Cardinality())
		for _, code := range col.Codes(0, tbl.NumRows()) {
			counts[code]++
		}
		rare := make([]uint32, 3)
		for i := range rare {
			best := -1
			for v, n := range counts {
				if n > 0 && (best < 0 || n < counts[best]) {
					best = v
				}
			}
			rare[i] = uint32(best)
			counts[best] = 0
		}
		kernPred = make([]bitmap.Predicate, len(rare))
		for i, v := range rare {
			kernPred[i] = &bitmap.ValuePred{Column: "Origin", Code: v}
		}
	})
	if kernErr != nil {
		b.Fatal(kernErr)
	}
	return kernSrcs, kernPred
}

// BenchmarkScanKernels measures the exact-scan hot loop per storage
// backend: the scalar per-row path against the vectorized grouped-count
// kernels ("grouped-count", where no block is prunable so the kernel is
// the entire difference), and a selective predicate-candidate query with
// block skipping toggled ("predicate", where stats prune most blocks).
// Results are byte-identical across every variant — the equivalence
// suite proves it — so only wall clock and the reported I/O metrics
// move.
func BenchmarkScanKernels(b *testing.B) {
	srcs, preds := kernelBenchSetup(b)
	run := func(b *testing.B, eng *engine.Engine, q engine.Query, noSkip, noKern bool) {
		b.Helper()
		p, err := eng.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		target, err := p.ResolveTarget(engine.Target{Uniform: true}, 0)
		if err != nil {
			b.Fatal(err)
		}
		params := coreParamsForBench(1_000_000)
		b.ResetTimer()
		var pruned, kernels int64
		for i := 0; i < b.N; i++ {
			res, err := p.RunWithTarget(target, engine.Options{
				Params: params, Executor: engine.Scan,
				DisableBlockSkip: noSkip, DisableScanKernels: noKern,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Exact {
				b.Fatal("scan result not exact")
			}
			pruned += res.IO.BlocksPruned
			kernels += res.IO.KernelBlocks
		}
		b.ReportMetric(float64(pruned)/float64(b.N), "blocks_pruned/op")
		b.ReportMetric(float64(kernels)/float64(b.N), "kernel_blocks/op")
	}
	variants := []struct {
		name           string
		noSkip, noKern bool
	}{
		{"scalar", true, true},
		{"kernel", true, false},
		{"kernel+skip", false, false},
	}
	for _, backend := range []string{"inmem", "mmap", "ingest"} {
		eng := engine.New(srcs[backend])
		grouped := engine.Query{Z: "Origin", X: []string{"DepartureHour"}}
		pred := engine.Query{CandidatePreds: preds, X: []string{"DepartureHour"}}
		for _, v := range variants {
			b.Run(backend+"/grouped-count/"+v.name, func(b *testing.B) {
				run(b, eng, grouped, v.noSkip, v.noKern)
			})
			b.Run(backend+"/predicate/"+v.name, func(b *testing.B) {
				run(b, eng, pred, v.noSkip, v.noKern)
			})
		}
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkL1Distance measures the inner-loop distance computation.
func BenchmarkL1Distance(b *testing.B) {
	a := histogram.New(24)
	c := histogram.New(24)
	for i := 0; i < 24; i++ {
		for j := 0; j <= i; j++ {
			a.Add(i)
			c.Add(23 - i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		histogram.L1(a, c)
	}
}

// BenchmarkHypergeometricCDF measures the stage-1 P-value kernel.
func BenchmarkHypergeometricCDF(b *testing.B) {
	h, err := stats.NewHypergeometric(4_000_000, 6000, 100_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.CDF(100)
	}
}

// BenchmarkUnderRepBatch measures the shared-computation stage-1 test over
// a TAXI-sized candidate set.
func BenchmarkUnderRepBatch(b *testing.B) {
	counts := make([]int64, 7641)
	for i := range counts {
		counts[i] = int64(i % 300)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.UnderRepPValues(counts, 4_000_000, 0.0015, 100_000); err != nil {
			b.Fatal(err)
		}
	}
}
