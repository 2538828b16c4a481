package engine

import (
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
	dm, err := eng.Density("Z")
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
			&bitmap.ValuePred{Column: "Z", Code: 0, DM: dm},
			&bitmap.OrPred{Children: []bitmap.Predicate{
				&bitmap.ValuePred{Column: "Z", Code: 0, DM: dm},
				&bitmap.ValuePred{Column: "Z", Code: 1, DM: dm},
			}},
		}},
		"predicates-binned": {XMeasure: "M", XBins: bins, CandidatePreds: []bitmap.Predicate{
			&bitmap.ValuePred{Column: "Z", Code: 2, DM: dm},
			&bitmap.ValuePred{Column: "Z", Code: 4, DM: dm},
		}},
		"filter": {Z: "Z", X: []string{"X"}, Filter: func(row int) bool { return row%3 != 0 }},
	}
}

// TestAccumulatorMatchesScalarReference is the accumulator's property
// test: for every plan shape, with the tally on and off, the vectorized
// kernels produce the scalar loop's histograms cell for cell (nil
// histograms included), every block's tally equals the scalar loop's,
// and the tallies sum to the histogram totals.
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
						if kern.cnt != nil || len(kern.touched) != 0 {
							t.Fatal("tally off but the accumulator tallied")
						}
						continue
					}
					// Drain both tallies the way commitChunk does.
					sort.Ints(ref.touched)
					sort.Ints(kern.touched)
					if fmt.Sprint(ref.touched) != fmt.Sprint(kern.touched) {
						t.Fatalf("block %d touched %v, scalar loop touched %v", b, kern.touched, ref.touched)
					}
					for _, id := range kern.touched {
						if kern.cnt[id] != ref.cnt[id] || kern.cnt[id] <= 0 {
							t.Fatalf("block %d candidate %d tallied %d, scalar loop %d", b, id, kern.cnt[id], ref.cnt[id])
						}
						tallied[id] += kern.cnt[id]
						kern.cnt[id], ref.cnt[id] = 0, 0
					}
					kern.touched, ref.touched = kern.touched[:0], ref.touched[:0]
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
				res, err := p.Run(Target{Uniform: true}, opts)
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
