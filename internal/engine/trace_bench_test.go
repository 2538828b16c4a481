package engine

import (
	"testing"

	"fastmatch/internal/obs/trace"
)

// BenchmarkTraceOverhead measures what tracing costs a run. The "off"
// case is the contract: Options.Trace == nil must price at the plain run
// — every trace call site is a nil-receiver no-op, with no timestamps,
// observer, or allocation on the per-row or per-block path. The "on"
// case prices a live trace (per-worker timestamps and span bookkeeping),
// which the server pays on every request. The "fastmatch" pair prices
// the sampling side: a traced FastMatch run stamps every HistSim
// emission and cuts a phase span from it. Both sit on the per-round
// path, never the per-row path, so they stay small too.
//
// CI runs it as a bench-sanity step (compile + a few iterations);
// BENCH_obs.json records a reference environment's numbers.
func BenchmarkTraceOverhead(b *testing.B) {
	plan, target, nb := overheadBenchPlan(b)
	run := func(exec Executor, traced bool) func(*testing.B) {
		return func(b *testing.B) {
			o := runOptions(exec, nb, 1)
			for i := 0; i < b.N; i++ {
				if traced {
					o.Trace = trace.New("bench")
				}
				if _, err := plan.RunWithTarget(target, o); err != nil {
					b.Fatal(err)
				}
				o.Trace.End()
			}
		}
	}
	b.Run("off", run(Scan, false))
	b.Run("on", run(Scan, true))
	b.Run("fastmatch", func(b *testing.B) {
		b.Run("off", run(FastMatch, false))
		b.Run("on", run(FastMatch, true))
	})
}
