package engine

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
)

// accumulatorShapes enumerates one query per plan shape the block
// accumulator distinguishes, over a table whose last block is short
// (3017 rows = 47 blocks of 64 + one of 9).
func accumulatorShapes(t testing.TB) (*Engine, map[string]Query) {
	t.Helper()
	tbl := testDataset(t, 3017, 9, 6, 77)
	eng := New(tbl)
	z, err := tbl.ColumnByName("Z")
	if err != nil {
		t.Fatal(err)
	}
	// Bin the measure's interquartile range only, so half the rows fall
	// outside every bin.
	m, err := tbl.MeasureByName("M")
	if err != nil {
		t.Fatal(err)
	}
	vals := append([]float64(nil), m.Values(0, tbl.NumRows())...)
	sort.Float64s(vals)
	q1, q3 := vals[len(vals)/4], vals[3*len(vals)/4]
	bins, err := colstore.NewBinner([]float64{q1, q1 + (q3-q1)/3, q1 + 2*(q3-q1)/3, q3})
	if err != nil {
		t.Fatal(err)
	}
	return eng, map[string]Query{
		"single-single": baseQuery(),
		"known-candidates-with-dummy": {Z: "Z", X: []string{"X"},
			KnownCandidates: []string{z.Dictionary().Value(3), z.Dictionary().Value(0)}},
		"multi-x":       {Z: "Z", X: []string{"X", "W"}},
		"binned-sparse": {Z: "Z", XMeasure: "M", XBins: bins},
		"overlapping-predicates": {X: []string{"X"}, CandidatePreds: []bitmap.Predicate{
			&bitmap.ValuePred{Column: "Z", Code: 0},
			&bitmap.OrPred{Children: []bitmap.Predicate{
				&bitmap.ValuePred{Column: "Z", Code: 0},
				&bitmap.ValuePred{Column: "Z", Code: 1},
			}},
		}},
		"predicates-binned": {XMeasure: "M", XBins: bins, CandidatePreds: []bitmap.Predicate{
			&bitmap.ValuePred{Column: "Z", Code: 2},
			&bitmap.ValuePred{Column: "Z", Code: 4},
		}},
		"filter": {Z: "Z", X: []string{"X"}, Filter: func(row int) bool { return row%3 != 0 }},
	}
}

// TestAccumulatorMatchesScalarReference is the accumulator's property
// test: for every plan shape, with the tally on and off, the vectorized
// kernels produce the scalar loop's histograms cell for cell (nil
// histograms included), every block's whole tally equals the scalar
// loop's, and the tallies sum to the histogram totals.
func TestAccumulatorMatchesScalarReference(t *testing.T) {
	eng, shapes := accumulatorShapes(t)
	src := eng.Source()
	for name, q := range shapes {
		for _, tally := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tally=%v", name, tally), func(t *testing.T) {
				p, err := eng.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				ref, kern := p.newKernel(false, -1, tally), p.newKernel(true, -1, tally)
				if ref.vectorized() {
					t.Fatal("kernels off still built a vectorized accumulator")
				}
				if kern.vectorized() != (q.Filter == nil) {
					t.Fatalf("vectorized = %v for shape %s", kern.vectorized(), name)
				}
				tallied := make([]int64, p.NumCandidates())
				for b := 0; b < src.NumBlocks(); b++ {
					lo, hi := src.BlockSpan(b)
					ref.block(lo, hi)
					kern.block(lo, hi)
					if !tally {
						if kern.cnt != nil {
							t.Fatal("tally off but the accumulator tallied")
						}
						continue
					}
					// Drain both tallies whole, the way commitChunk clears them.
					if fmt.Sprint(kern.cnt) != fmt.Sprint(ref.cnt) {
						t.Fatalf("block %d tallied %v, scalar loop %v", b, kern.cnt, ref.cnt)
					}
					for id, c := range kern.cnt {
						tallied[id] += c
					}
					clear(kern.cnt)
					clear(ref.cnt)
				}
				want, got := ref.fold(), kern.fold()
				counted := false
				for id := range want {
					if (want[id] == nil) != (got[id] == nil) {
						t.Fatalf("candidate %d: histogram allocated = %v, scalar loop %v", id, got[id] != nil, want[id] != nil)
					}
					if want[id] == nil {
						if tallied[id] != 0 {
							t.Fatalf("candidate %d tallied %d rows but counted none", id, tallied[id])
						}
						continue
					}
					counted = true
					for g := 0; g < p.Groups(); g++ {
						if got[id].Count(g) != want[id].Count(g) {
							t.Fatalf("cell (%d,%d) = %v, scalar loop %v", id, g, got[id].Count(g), want[id].Count(g))
						}
					}
					if tally && tallied[id] != int64(want[id].Total()) {
						t.Fatalf("candidate %d tallied %d rows, histogram total %v", id, tallied[id], want[id].Total())
					}
				}
				if !counted {
					t.Fatal("shape counted no row: the comparison is vacuous")
				}
			})
		}
	}
}

// TestCommitChunkClearsWholeTally: a chunk commit charges each active
// candidate exactly its tallied rows and leaves the kernel's tally
// all-zero, including the rows tallied for candidates outside the active
// set.
func TestCommitChunkClearsWholeTally(t *testing.T) {
	tbl := testDataset(t, 3000, 12, 6, 3)
	p, err := New(tbl).Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	bs := testSampler(p, FastMatch, 16, 0)
	kern := p.newKernel(true, -1, true)
	for b := 0; b < 8; b++ {
		lo, hi := tbl.BlockSpan(b)
		kern.block(lo, hi)
	}
	tally := append([]int64(nil), kern.cnt...)
	inactive := 0
	for id, c := range tally {
		switch {
		case id%2 == 1:
			if c > 0 {
				inactive++
			}
		case id%4 == 0:
			bs.deficit[id] = c + 5 // stays unmet
		default:
			bs.deficit[id] = max(c, 1) // met by this chunk unless untallied
		}
		if bs.deficit[id] > 0 {
			bs.unmet++
		}
	}
	if inactive == 0 {
		t.Fatal("no candidate outside the active set was tallied: the case is vacuous")
	}
	want := append([]int64(nil), bs.deficit...)
	for id := range want {
		want[id] = max(want[id]-tally[id], 0)
	}
	bs.refreshActive()
	bs.commitChunk(kern)
	for id, c := range kern.cnt {
		if c != 0 {
			t.Fatalf("candidate %d: tally %d after the commit, want 0", id, c)
		}
	}
	var active []int
	for id, d := range bs.deficit {
		if d != want[id] {
			t.Fatalf("candidate %d: deficit %d after the commit, want %d", id, d, want[id])
		}
		if d > 0 {
			active = append(active, id)
		}
	}
	if bs.unmet != len(active) || fmt.Sprint(bs.active) != fmt.Sprint(active) {
		t.Fatalf("unmet = %d, active = %v; want %d unmet candidates %v", bs.unmet, bs.active, len(active), active)
	}
}

// TestExplainKernelEligibilityMatchesRuns holds Explain to what runs do:
// scan_kernel_eligible is true exactly when a run with kernels enabled
// accumulates its blocks through them — for every executor, because all
// five read blocks through the same accumulator.
func TestExplainKernelEligibilityMatchesRuns(t *testing.T) {
	eng, shapes := accumulatorShapes(t)
	for name, q := range shapes {
		p, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		eligible := p.Explain().ScanKernelEligible
		for _, exec := range allExecutors() {
			for _, noKern := range []bool{false, true} {
				opts := equivOptions(exec, eng.Source().NumBlocks())
				opts.DisableScanKernels = noKern
				res, err := p.RunContext(context.Background(), Target{Uniform: true}, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, exec, err)
				}
				if took := res.IO.KernelBlocks > 0; took != (eligible && !noKern) {
					t.Errorf("%s/%s kernels-off=%v: scan_kernel_eligible=%v but the run took %d kernel blocks of %d read",
						name, exec, noKern, eligible, res.IO.KernelBlocks, res.IO.BlocksRead)
				}
			}
		}
	}
}
