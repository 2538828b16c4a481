package engine

import (
	"fmt"
	"testing"
)

// BenchmarkParallelSampling measures the adaptive sampling executors
// (stage-1 uniform pass + stage-2 hypothesis-testing rounds) across
// worker counts. Results are byte-identical for any worker count by
// construction (see parallel_equiv_test.go), so the only thing at stake
// here is wall-clock: workers=1 must not regress against the serial
// baseline, and workers>1 may only help on real multi-core hardware
// (measured end to end as engine_workers_speedup.syncmatch by
// `bash benchmark/run.sh --trace 1`).
func BenchmarkParallelSampling(b *testing.B) {
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
	for _, exec := range []Executor{ScanMatch, SyncMatch, FastMatch} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", exec, workers), func(b *testing.B) {
				opts := equivOptions(exec, tbl.NumBlocks())
				opts.Workers = workers
				for i := 0; i < b.N; i++ {
					if _, err := plan.RunWithTarget(target, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
