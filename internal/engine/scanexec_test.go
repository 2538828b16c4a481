package engine

import (
	"testing"

	"fastmatch/internal/bitmap"
)

// requireIdenticalResults asserts two exact results agree bit-for-bit:
// same top-k order, same distances, same histogram counts, same pruning.
func requireIdenticalResults(t *testing.T, want, got *Result) {
	t.Helper()
	if !got.Exact {
		t.Fatal("parallel result not exact")
	}
	if len(got.TopK) != len(want.TopK) {
		t.Fatalf("topk size %d, want %d", len(got.TopK), len(want.TopK))
	}
	for i := range want.TopK {
		w, g := want.TopK[i], got.TopK[i]
		if g.ID != w.ID || g.Label != w.Label {
			t.Fatalf("topk[%d] = %d %q, want %d %q", i, g.ID, g.Label, w.ID, w.Label)
		}
		if g.Distance != w.Distance {
			t.Fatalf("topk[%d] distance %v != %v", i, g.Distance, w.Distance)
		}
		wc, gc := w.Histogram.Counts(), g.Histogram.Counts()
		for j := range wc {
			if wc[j] != gc[j] {
				t.Fatalf("topk[%d] hist[%d] = %v, want %v", i, j, gc[j], wc[j])
			}
		}
	}
	if len(got.Pruned) != len(want.Pruned) {
		t.Fatalf("pruned %d, want %d", len(got.Pruned), len(want.Pruned))
	}
	for i := range want.Pruned {
		if got.Pruned[i] != want.Pruned[i] {
			t.Fatalf("pruned[%d] = %q, want %q", i, got.Pruned[i], want.Pruned[i])
		}
	}
	if got.IO.BlocksRead != want.IO.BlocksRead || got.IO.TuplesRead != want.IO.TuplesRead {
		t.Fatalf("io %+v, want %+v", got.IO, want.IO)
	}
}

// TestParallelScanMatchesScan asserts ParallelScan is byte-identical to
// Scan at every worker count, on a seeded datagen table.
func TestParallelScanMatchesScan(t *testing.T) {
	tbl := testDataset(t, 50_000, 30, 8, 21)
	e := New(tbl)
	truth, err := e.Run(baseQuery(), Target{Uniform: true}, Options{
		Params: testParams(), Executor: Scan,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 3, 4, 8, 16} {
		res, err := e.Run(baseQuery(), Target{Uniform: true}, Options{
			Params: testParams(), Executor: ParallelScan, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireIdenticalResults(t, truth, res)
	}
}

// TestParallelScanWithFilterAndKnownCandidates covers the filter and
// restricted-domain paths of the partitioned scan.
func TestParallelScanWithFilterAndKnownCandidates(t *testing.T) {
	tbl := testDataset(t, 40_000, 12, 6, 22)
	e := New(tbl)
	w, _ := tbl.Column("W")
	z, _ := tbl.Column("Z")
	q := baseQuery()
	q.Filter = func(row int) bool { return w.Code(row) != 3 }
	q.KnownCandidates = []string{z.Dict.Value(0), z.Dict.Value(1), z.Dict.Value(4)}
	truth, err := e.Run(q, Target{Uniform: true}, Options{Params: testParams(), Executor: Scan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(q, Target{Uniform: true}, Options{
		Params: testParams(), Executor: ParallelScan, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, truth, res)
}

// TestParallelScanPredicateCandidates covers the overlapping
// multi-membership path.
func TestParallelScanPredicateCandidates(t *testing.T) {
	tbl := testDataset(t, 30_000, 10, 6, 23)
	e := New(tbl)
	q := Query{X: []string{"X"}}
	q.CandidatePreds = append(q.CandidatePreds,
		&bitmap.ValuePred{Column: "Z", Code: 1},
		&bitmap.OrPred{Children: []bitmap.Predicate{
			&bitmap.ValuePred{Column: "Z", Code: 1},
			&bitmap.ValuePred{Column: "W", Code: 0},
		}},
	)
	params := testParams()
	params.K = 2
	params.Sigma = 0
	truth, err := e.Run(q, Target{Uniform: true}, Options{Params: params, Executor: Scan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(q, Target{Uniform: true}, Options{
		Params: params, Executor: ParallelScan, Workers: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, truth, res)
}

// TestOverlappingPredicateTargetResolution asserts that resolving a
// predicate candidate as the target counts every row satisfying the
// predicate, including rows an earlier overlapping predicate also
// matches (the target must match its own scan histogram).
func TestOverlappingPredicateTargetResolution(t *testing.T) {
	tbl := testDataset(t, 20_000, 8, 6, 26)
	e := New(tbl)
	q := Query{X: []string{"X"}}
	// pred 1 overlaps pred 0 on Z=0 rows.
	q.CandidatePreds = append(q.CandidatePreds,
		&bitmap.ValuePred{Column: "Z", Code: 0},
		&bitmap.OrPred{Children: []bitmap.Predicate{
			&bitmap.ValuePred{Column: "Z", Code: 0},
			&bitmap.ValuePred{Column: "Z", Code: 1},
		}},
	)
	p, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.ResolveTarget(Target{Candidate: q.CandidatePreds[1].String()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	z, _ := tbl.Column("Z")
	want := 0
	for row := 0; row < tbl.NumRows(); row++ {
		if c := z.Code(row); c == 0 || c == 1 {
			want++
		}
	}
	if int(h.Total()) != want {
		t.Fatalf("overlapping predicate target total %v, want %d (first-match would drop the Z=0 overlap)", h.Total(), want)
	}
	par, err := p.ResolveTarget(Target{Candidate: q.CandidatePreds[1].String()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.Total() != h.Total() {
		t.Fatalf("parallel total %v != sequential %v", par.Total(), h.Total())
	}
}

// TestParallelTargetResolution asserts the parallel candidate-target scan
// agrees with a sequential one at every worker count.
func TestParallelTargetResolution(t *testing.T) {
	tbl := testDataset(t, 40_000, 15, 8, 24)
	e := New(tbl)
	p, err := e.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	z, _ := tbl.Column("Z")
	for _, label := range []string{z.Dict.Value(0), z.Dict.Value(7)} {
		seq, err := p.ResolveTarget(Target{Candidate: label}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 8} {
			par, err := p.ResolveTarget(Target{Candidate: label}, workers)
			if err != nil {
				t.Fatal(err)
			}
			if par.Total() != seq.Total() {
				t.Fatalf("%s workers=%d total %v != %v", label, workers, par.Total(), seq.Total())
			}
			sc, pc := seq.Counts(), par.Counts()
			for j := range sc {
				if sc[j] != pc[j] {
					t.Fatalf("%s workers=%d count[%d] %v != %v", label, workers, j, pc[j], sc[j])
				}
			}
		}
	}
}

// TestPlanReuse runs one Plan repeatedly across executors and checks the
// answers match planning from scratch each time.
func TestPlanReuse(t *testing.T) {
	tbl := testDataset(t, 30_000, 15, 6, 25)
	e := New(tbl)
	p, err := e.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCandidates() != 15 || p.Groups() != 6 {
		t.Fatalf("plan shape: %d candidates, %d groups", p.NumCandidates(), p.Groups())
	}
	target, err := p.ResolveTarget(Target{Uniform: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// FastMatch is excluded from the strict comparison: its asynchronous
	// marker makes the set of blocks read timing-dependent.
	for _, exec := range []Executor{Scan, ParallelScan, ScanMatch} {
		opts := Options{Params: testParams(), Executor: exec, Seed: 3, Lookahead: 32}
		fromPlan, err := p.RunWithTarget(target, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := e.Run(baseQuery(), Target{Uniform: true}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(fromPlan.TopK) != len(fresh.TopK) {
			t.Fatalf("%v: topk %d != %d", exec, len(fromPlan.TopK), len(fresh.TopK))
		}
		for i := range fresh.TopK {
			if fromPlan.TopK[i].Label != fresh.TopK[i].Label {
				t.Fatalf("%v: topk[%d] %q != %q", exec, i, fromPlan.TopK[i].Label, fresh.TopK[i].Label)
			}
		}
	}
	if _, err := p.RunWithTarget(target, Options{
		Params: testParams(), Executor: FastMatch, Seed: 3, Lookahead: 32,
	}); err != nil {
		t.Fatal(err)
	}
}
