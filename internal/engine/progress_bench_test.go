package engine

import (
	"context"
	"testing"

	"fastmatch/internal/histogram"
)

// BenchmarkProgressOverhead measures what the progressive API costs a
// run (see BENCH_progress.json for the recorded baseline):
//
//   - nil: OnProgress unset, no context — the guard is nil and every
//     per-block check is one pointer comparison. This must match the
//     pre-API scan cost.
//   - noop: a no-op OnProgress on the sequential scan (one callback per
//     256 blocks).
//   - ctx: a cancellable context and no callback — the guard is live,
//     polling ctx.Done() once per block.
//   - fastmatch: FastMatch with OnProgress unset (nil) and set to a
//     no-op (noop), which renders a frame after stage 1, every stage-2
//     round and stage 3.
func BenchmarkProgressOverhead(b *testing.B) {
	plan, target, nb := overheadBenchPlan(b)
	run := func(exec Executor, onProgress func(Progress)) func(*testing.B) {
		return func(b *testing.B) {
			o := runOptions(exec, nb, 1)
			o.OnProgress = onProgress
			for i := 0; i < b.N; i++ {
				if _, err := plan.RunWithTarget(target, o); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	noop := func(Progress) {}
	b.Run("nil", run(Scan, nil))
	b.Run("noop", run(Scan, noop))
	b.Run("ctx", func(b *testing.B) {
		o := runOptions(Scan, nb, 1)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for i := 0; i < b.N; i++ {
			if _, err := plan.RunWithTargetContext(ctx, target, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fastmatch", func(b *testing.B) {
		b.Run("nil", run(FastMatch, nil))
		b.Run("noop", run(FastMatch, noop))
	})
}

// overheadBenchPlan is the observer benchmarks' plan over a 400k-row
// table, its uniform target and its block count.
func overheadBenchPlan(b *testing.B) (*Plan, *histogram.Histogram, int) {
	tbl := testDataset(b, 400_000, 20, 8, 5)
	plan, err := New(tbl).Prepare(baseQuery())
	if err != nil {
		b.Fatal(err)
	}
	target, err := plan.ResolveTarget(Target{Uniform: true}, 0)
	if err != nil {
		b.Fatal(err)
	}
	return plan, target, tbl.NumBlocks()
}
