package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/histogram"
)

// requireIdenticalResults asserts an exact result equals want bit for
// bit: the answer, histogram counts included, and the IOStats.
func requireIdenticalResults(t *testing.T, want, got *Result) {
	t.Helper()
	if g, w := canonicalAnswer(t, got), canonicalAnswer(t, want); !got.Exact || g != w || got.IO != want.IO {
		t.Fatalf("result diverges:\n%s %+v\nvs\n%s %+v", g, got.IO, w, want.IO)
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

// overKernelCapTable builds a table whose Z × (A, B, C) accumulator,
// 64 candidates (17 of them present) × 64³ groups, exceeds
// maxKernelCells: Prepare rejects it.
func overKernelCapTable(t testing.TB) *colstore.Table {
	t.Helper()
	const rows, card = 2048, 64
	dicts := make([]*colstore.Dictionary, 4)
	codes := make([][]uint32, 4)
	for c := range dicts {
		dicts[c] = colstore.NewDictionary()
		for v := 0; v < card; v++ {
			dicts[c].Intern(fmt.Sprintf("v%d", v))
		}
		codes[c] = make([]uint32, rows)
	}
	for row := 0; row < rows; row++ {
		codes[0][row] = uint32(row / 50 % 17)
		codes[1][row] = uint32(row % card)
		codes[2][row] = uint32(row / 7 % card)
		codes[3][row] = uint32(row / 13 % card)
	}
	cols := make([]*colstore.Column, 4)
	for c, name := range []string{"Z", "A", "B", "C"} {
		cols[c] = colstore.NewColumn(name, dicts[c], codes[c])
	}
	tbl, err := colstore.NewTable(64, rows, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestCandidateTargetMatchesExactScan: a candidate target resolved by
// Plan.ResolveTarget equals that candidate's histogram from a full pass
// of the per-row reference loop (refKernel) cell for cell — for every
// accumulator shape, at one and two workers. A shape over
// maxKernelCells is rejected at Prepare instead.
func TestCandidateTargetMatchesExactScan(t *testing.T) {
	t.Run("over-kernel-cap", func(t *testing.T) {
		_, err := New(overKernelCapTable(t)).Prepare(Query{Z: "Z", X: []string{"A", "B", "C"}})
		var tooLarge *PlanTooLargeError
		if !errors.As(err, &tooLarge) || tooLarge.Candidates != 64 || tooLarge.Groups != 64*64*64 {
			t.Fatalf("Prepare error %v, want a *PlanTooLargeError naming 64 × %d", err, 64*64*64)
		}
	})
	tbl := accumulatorTable(t)
	eng := New(tbl)
	for name, q := range accumulatorShapes(t, tbl, eng) {
		t.Run(name, func(t *testing.T) {
			p, err := eng.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			want := refHists(p)
			same := func(id, workers int, got *histogram.Histogram) {
				t.Helper()
				if got.Groups() != p.Groups() {
					t.Fatalf("candidate %d workers=%d: %d groups, want %d", id, workers, got.Groups(), p.Groups())
				}
				for g := 0; g < p.Groups(); g++ {
					if got.Count(g) != want[id].Count(g) {
						t.Fatalf("candidate %d workers=%d: cell %d = %v, reference %v",
							id, workers, g, got.Count(g), want[id].Count(g))
					}
				}
			}
			ids := make([]int, p.NumCandidates())
			for id := range ids {
				ids[id] = id
			}
			resolved := map[string]bool{}
			for _, id := range ids {
				if want[id] == nil {
					t.Fatalf("the reference counted no row for candidate %d", id)
				}
				label := p.cand.label(id)
				if resolved[label] { // ResolveTarget picks a label's first candidate
					continue
				}
				resolved[label] = true
				for _, workers := range []int{1, 2} {
					got, err := p.ResolveTarget(Target{Candidate: label}, workers)
					if err != nil {
						t.Fatal(err)
					}
					same(id, workers, got)
				}
			}
		})
	}
}

// TestCandidateTargetOnePass pins the exact executors' one pass: with a
// candidate target, Scan, ParallelScan at 1, 2 and 4 workers, and Auto
// resolved to Scan read every row of every block the skip masks keep
// exactly once and no other row, on every backend — the target comes
// from the pass, not from a pass of its own. So a row budget of the
// table's size completes Exact, with the unbudgeted answer.
func TestCandidateTargetOnePass(t *testing.T) {
	acc := inArrivalOrder(t, accumulatorTable(t))
	for _, tc := range []struct {
		name  string
		tbl   *colstore.Table
		query func(*Engine) Query
	}{
		{"column", acc, func(*Engine) Query { return baseQuery() }},
		{"pred-cands", skipTestTable(t), func(eng *Engine) Query { return skipQueries(t, eng)["pred-cands"] }},
	} {
		for _, backend := range matrixBackends {
			hooked := &rowHookReader{Reader: backend.open(t, tc.tbl)}
			eng := New(hooked)
			p, err := eng.Prepare(tc.query(eng))
			if err != nil {
				t.Fatal(err)
			}
			target := Target{Candidate: p.cand.label(0)}
			if exec, _ := ResolveExecutor(runOptions(Auto, 0, 0), p.rows, p.Groups(), false); exec != Scan {
				t.Fatalf("%s: Auto resolves to %s, want Scan", tc.name, exec)
			}
			for _, run := range []struct {
				exec    Executor
				workers int
			}{{Scan, 1}, {ParallelScan, 1}, {ParallelScan, 2}, {ParallelScan, 4}, {Auto, 1}} {
				t.Run(fmt.Sprintf("%s/%s/%s/workers=%d", tc.name, backend.name, run.exec, run.workers), func(t *testing.T) {
					reads := make([]atomic.Int32, tc.tbl.NumRows())
					hooked.set(func(lo, hi int) {
						for row := lo; row < hi; row++ {
							reads[row].Add(1)
						}
					})
					opts := runOptions(run.exec, tc.tbl.NumBlocks(), run.workers)
					res, err := p.RunContext(context.Background(), target, opts)
					hooked.set(nil)
					if err != nil || !res.Exact {
						t.Fatalf("run: err %v, result %+v", err, res)
					}
					for row := range reads {
						want := int32(1)
						if p.skipAll != nil && p.skipAll.Get(row/p.blockSize) {
							want = 0
						}
						if n := reads[row].Load(); n != want {
							t.Fatalf("row %d read %d times, want %d", row, n, want)
						}
					}
					opts.RowBudget = int64(tc.tbl.NumRows())
					budgeted, err := p.RunContext(context.Background(), target, opts)
					if err != nil || !budgeted.Exact || budgeted.Partial {
						t.Fatalf("row budget of the table's %d rows: err %v, result %+v", opts.RowBudget, err, budgeted)
					}
					requireIdenticalResults(t, res, budgeted)
				})
			}
		}
	}
}

// TestBlockCursorHandsOutEveryBlockOnce: workers racing on one cursor
// receive every block exactly once, in non-empty chunks of at most
// scanChunk, and a lone worker receives the blocks in order.
func TestBlockCursorHandsOutEveryBlockOnce(t *testing.T) {
	for _, tc := range []struct{ blocks, workers int }{{1, 1}, {7, 3}, {100, 2}, {5000, 4}, {78125, 2}} {
		seen := make([]atomic.Int32, tc.blocks)
		cur := newBlockCursor(tc.blocks, tc.workers)
		var wg sync.WaitGroup
		for w := 0; w < tc.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for lo, hi, ok := cur.claim(); ok; lo, hi, ok = cur.claim() {
					if hi <= lo || hi-lo > scanChunk {
						t.Errorf("blocks=%d workers=%d: chunk [%d, %d)", tc.blocks, tc.workers, lo, hi)
						return
					}
					for b := lo; b < hi; b++ {
						seen[b].Add(1)
					}
				}
			}()
		}
		wg.Wait()
		for b := range seen {
			if n := seen[b].Load(); n != 1 {
				t.Fatalf("blocks=%d workers=%d: block %d handed out %d times", tc.blocks, tc.workers, b, n)
			}
		}

		next := 0
		cur = newBlockCursor(tc.blocks, 1)
		for lo, hi, ok := cur.claim(); ok; lo, hi, ok = cur.claim() {
			if lo != next {
				t.Fatalf("blocks=%d: lone worker got [%d, %d) after block %d", tc.blocks, lo, hi, next)
			}
			next = hi
		}
		if next != tc.blocks {
			t.Fatalf("blocks=%d: lone worker stopped at block %d", tc.blocks, next)
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
