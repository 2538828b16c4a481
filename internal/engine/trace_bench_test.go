package engine

import (
	"testing"

	"fastmatch/internal/obs/trace"
)

// BenchmarkTraceOverhead measures what tracing costs the hot path. The
// "off" case is the contract: Options.Trace == nil must price at the
// plain run — every trace call site is a nil-receiver no-op, with no
// timestamps, observer, or allocation on the per-row or per-block path.
// The "on" case prices a live trace (per-phase/per-worker timestamps and
// span bookkeeping), which the server pays on every request; it sits on
// the per-round path, never the per-row path, so it stays small too.
//
// CI runs the "off" case as a bench-sanity step (compile + a few
// iterations); BENCH_obs.json records a reference environment's numbers.
func BenchmarkTraceOverhead(b *testing.B) {
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

	b.Run("off", func(b *testing.B) {
		o := opts()
		for i := 0; i < b.N; i++ {
			if _, err := plan.RunWithTarget(target, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		o := opts()
		for i := 0; i < b.N; i++ {
			o.Trace = trace.New("bench")
			if _, err := plan.RunWithTarget(target, o); err != nil {
				b.Fatal(err)
			}
			o.Trace.End()
		}
	})
}
