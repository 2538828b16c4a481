package engine

import "testing"

// BenchmarkSampling measures each adaptive sampling executor (stage-1
// uniform pass + stage-2 hypothesis-testing rounds) and the exact Scan
// over one 400k-row plan. Every sub-benchmark reports ns/tuple — wall
// time over the tuples it read — so the sampler's per-tuple overhead
// over the scan reads off one run. Every round runs on the caller's
// goroutine, so there is no worker axis.
func BenchmarkSampling(b *testing.B) {
	tbl := testDataset(b, 400_000, 20, 8, 5)
	eng := New(tbl)
	plan, err := eng.Prepare(baseQuery())
	if err != nil {
		b.Fatal(err)
	}
	target, err := plan.ResolveTarget(Target{Uniform: true}, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, exec := range append([]Executor{Scan}, samplingExecutors()...) {
		b.Run(exec.String(), func(b *testing.B) {
			opts := equivOptions(exec, tbl.NumBlocks())
			tuples := int64(0)
			for i := 0; i < b.N; i++ {
				res, err := plan.RunWithTarget(target, opts)
				if err != nil {
					b.Fatal(err)
				}
				tuples += res.IO.TuplesRead
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
		})
	}
}
