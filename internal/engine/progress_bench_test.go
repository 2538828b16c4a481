package engine

import (
	"context"
	"testing"
)

// BenchmarkProgressOverhead measures what the progressive API costs the
// exact-scan hot path (see BENCH_progress.json for the recorded
// baseline):
//
//   - nil: OnProgress unset, no context — the guard is nil and every
//     per-block check is one pointer comparison. This must match the
//     pre-API scan cost.
//   - noop: a no-op OnProgress on the sequential scan (one callback per
//     256 blocks).
//   - ctx: a cancellable context and no callback — the guard is live,
//     adding one ctx.Err() check per block.
func BenchmarkProgressOverhead(b *testing.B) {
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
	opts := func() Options {
		o := runOptions(Scan, tbl.NumBlocks(), 1)
		return o
	}

	b.Run("nil", func(b *testing.B) {
		o := opts()
		for i := 0; i < b.N; i++ {
			if _, err := plan.RunWithTarget(target, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("noop", func(b *testing.B) {
		o := opts()
		o.OnProgress = func(Progress) {}
		for i := 0; i < b.N; i++ {
			if _, err := plan.RunWithTarget(target, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ctx", func(b *testing.B) {
		o := opts()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for i := 0; i < b.N; i++ {
			if _, err := plan.RunWithTargetContext(ctx, target, o); err != nil {
				b.Fatal(err)
			}
		}
	})
}
