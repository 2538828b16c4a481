package engine

import (
	"testing"

	"fastmatch/internal/histogram"
)

func TestKRangeThroughEngine(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 6, 40)
	e := New(tbl)
	params := testParams()
	params.K = 0
	params.KRange.KMin = 2
	params.KRange.KMax = 7
	res, err := e.Run(baseQuery(), Target{Uniform: true}, Options{
		Params: params, Executor: FastMatch, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) < 2 || len(res.TopK) > 7 {
		t.Fatalf("KRange |M| = %d", len(res.TopK))
	}
	// Scan with KRange returns KMax candidates.
	scan, err := e.Run(baseQuery(), Target{Uniform: true}, Options{
		Params: params, Executor: Scan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.TopK) != 7 {
		t.Fatalf("Scan KRange |M| = %d, want KMax=7", len(scan.TopK))
	}
}

func TestEpsilonReconstructThroughEngine(t *testing.T) {
	tbl := testDataset(t, 60_000, 15, 6, 41)
	e := New(tbl)
	params := testParams()
	params.Epsilon = 0.2
	params.EpsilonReconstruct = 0.08
	res, err := e.Run(baseQuery(), Target{Uniform: true}, Options{
		Params: params, Executor: FastMatch, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each returned histogram must be within ε₂ of its exact counterpart.
	plan, err := e.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.TopK {
		exact, err := plan.ResolveTarget(Target{Candidate: m.Label}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d := histogram.L1(m.Histogram, exact); d >= 0.08 {
			t.Errorf("candidate %q reconstruction error %g ≥ ε₂", m.Label, d)
		}
	}
}

func TestL2MetricThroughEngine(t *testing.T) {
	tbl := testDataset(t, 40_000, 12, 6, 42)
	e := New(tbl)
	params := testParams()
	params.Metric = histogram.MetricL2
	params.Epsilon = 0.08
	res, err := e.Run(baseQuery(), Target{Uniform: true}, Options{
		Params: params, Executor: FastMatch, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := e.Run(baseQuery(), Target{Uniform: true}, Options{
		Params: params, Executor: Scan,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Separation check under L2.
	boundary := truth.TopK[len(truth.TopK)-1].Distance
	plan, err := e.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.TopK {
		exact, err := plan.ResolveTarget(Target{Candidate: m.Label}, 0)
		if err != nil {
			t.Fatal(err)
		}
		target, _ := plan.ResolveTarget(Target{Uniform: true}, 0)
		if d := histogram.L2(exact, target); d-boundary >= params.Epsilon {
			t.Errorf("L2 separation violated for %q: %g vs boundary %g", m.Label, d, boundary)
		}
	}
}

func TestContinuousZViaBinnedDictionary(t *testing.T) {
	// Appendix A.1.6: continuous candidate attributes are binned at a
	// finest granularity which then induces coarser candidate sets. The
	// engine sees the binned column like any categorical column; this test
	// checks that a coarse candidate's block set is the union of its fine
	// candidates' sets.
	tbl := testDataset(t, 10_000, 12, 6, 43)
	e := New(tbl)
	idx, err := e.Index("Z")
	if err != nil {
		t.Fatal(err)
	}
	// Coarse candidate = union of fine candidates: the block set of a
	// 2-way merge equals the OR of the fine bitsets.
	fine0, err := idx.ValueBitset(0)
	if err != nil {
		t.Fatal(err)
	}
	fine1, err := idx.ValueBitset(1)
	if err != nil {
		t.Fatal(err)
	}
	union := fine0.Clone()
	if err := union.Or(fine1); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < idx.NumBlocks(); b++ {
		if union.Get(b) != idx.BlockAnyActive([]uint32{0, 1}, b) {
			t.Fatalf("coarse candidate block set mismatch at block %d", b)
		}
	}
}

func TestMaxRoundsParameterThroughEngine(t *testing.T) {
	tbl := testDataset(t, 30_000, 10, 6, 45)
	e := New(tbl)
	params := testParams()
	params.MaxRounds = 1
	// With only one round allowed the run either terminates in one round
	// or errors — both acceptable; it must not hang.
	_, err := e.Run(baseQuery(), Target{Uniform: true}, Options{
		Params: params, Executor: FastMatch, Seed: 7,
	})
	if err == nil {
		return
	}
}
