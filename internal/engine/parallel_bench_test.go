package engine

import (
	"context"
	"testing"
)

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
			opts := runOptions(exec, tbl.NumBlocks(), 4)
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

// BenchmarkCandidateTarget measures whole candidate-target queries the
// way a server runs them, through Plan.RunContext over the same 400k-row
// plan: Scan and ParallelScan (GOMAXPROCS workers) take the target from
// their one pass, FastMatch resolves it with a candidate scan before
// stage 1. Each reports ns/row — wall time over the table's rows per
// query — so a second pass shows as a higher figure than the pass alone.
func BenchmarkCandidateTarget(b *testing.B) {
	tbl := testDataset(b, 400_000, 20, 8, 5)
	plan, err := New(tbl).Prepare(baseQuery())
	if err != nil {
		b.Fatal(err)
	}
	target := Target{Candidate: plan.cand.label(0)}
	for _, exec := range []Executor{Scan, ParallelScan, FastMatch} {
		b.Run(exec.String(), func(b *testing.B) {
			opts := runOptions(exec, tbl.NumBlocks(), 0)
			for i := 0; i < b.N; i++ {
				if _, err := plan.RunContext(context.Background(), target, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tbl.NumRows()), "ns/row")
		})
	}
}
