package engine

import "testing"

// BenchmarkSampling measures each adaptive sampling executor (stage-1
// uniform pass + stage-2 hypothesis-testing rounds) over a 400k-row
// table. Every round runs on the caller's goroutine, so there is no
// worker axis; compare its per-row cost with BenchmarkScanKernels' exact
// pass to size the sampler's overhead over the scan.
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
	for _, exec := range samplingExecutors() {
		b.Run(exec.String(), func(b *testing.B) {
			opts := equivOptions(exec, tbl.NumBlocks())
			for i := 0; i < b.N; i++ {
				if _, err := plan.RunWithTarget(target, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
