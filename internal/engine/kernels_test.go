package engine

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/histogram"
)

// accumulatorTable is the table behind accumulatorShapes. Its last
// block is short (8201 rows = 128 blocks of 64 + one of 9), and on the
// ingest backends it is the live tail past two sealed segments.
func accumulatorTable(t testing.TB) *colstore.Table {
	t.Helper()
	return testDataset(t, 8201, 9, 6, 77)
}

// accumulatorShapes enumerates one query per plan shape the block
// accumulator distinguishes, against eng over tbl's rows. Candidates and
// predicates name tbl's Z values, resolved in eng's own dictionary, so
// one set of shapes serves every backend.
func accumulatorShapes(t testing.TB, tbl *colstore.Table, eng *Engine) map[string]Query {
	t.Helper()
	src := eng.Source()
	z, err := src.ColumnByName("Z")
	if err != nil {
		t.Fatal(err)
	}
	// Bin the measure's interquartile range only, so half the rows fall
	// outside every bin.
	m, err := src.MeasureByName("M")
	if err != nil {
		t.Fatal(err)
	}
	vals := append([]float64(nil), m.Values(0, src.NumRows())...)
	sort.Float64s(vals)
	q1, q3 := vals[len(vals)/4], vals[3*len(vals)/4]
	if q3 == q1 { // a one-row table: its row opens the first bin
		q3 = q1 + 1
	}
	bins, err := colstore.NewBinner([]float64{q1, q1 + (q3-q1)/3, q1 + 2*(q3-q1)/3, q3})
	if err != nil {
		t.Fatal(err)
	}
	zValue := func(v string) *bitmap.ValuePred {
		code, ok := z.Dictionary().Code(v)
		if !ok {
			t.Fatalf("no Z code for %q", v)
		}
		return &bitmap.ValuePred{Column: "Z", Code: code}
	}
	base, err := tbl.ColumnByName("Z")
	if err != nil {
		t.Fatal(err)
	}
	// The shapes name the table's Z values in code order, cycling through
	// them on a table that holds fewer than five (the edge-case tables).
	var present []uint32
	seen := make([]bool, base.Cardinality())
	for _, code := range base.Codes(0, tbl.NumRows()) {
		seen[code] = true
	}
	for code, ok := range seen {
		if ok {
			present = append(present, uint32(code))
		}
	}
	zv := func(i int) string { return base.Dictionary().Value(present[i%len(present)]) }
	return map[string]Query{
		"single-single":               baseQuery(),
		"known-candidates-with-dummy": {Z: "Z", X: []string{"X"}, KnownCandidates: slices.Compact([]string{zv(3), zv(0)})},
		"multi-x":                     {Z: "Z", X: []string{"X", "W"}},
		"binned-sparse":               {Z: "Z", XMeasure: "M", XBins: bins},
		"overlapping-predicates": {X: []string{"X"}, CandidatePreds: []bitmap.Predicate{
			zValue(zv(0)),
			&bitmap.OrPred{Children: []bitmap.Predicate{zValue(zv(0)), zValue(zv(1))}},
		}},
		"predicates-binned": {XMeasure: "M", XBins: bins, CandidatePreds: []bitmap.Predicate{
			zValue(zv(2)), zValue(zv(4)),
		}},
	}
}

// refKernel is the accumulator's reference: the per-row loop the kernels
// replaced. It maps each row from the plan's query through the source's
// column readers, one row at a time — never through the plan's
// candidates and groups, their strides and remap table, or the compiled
// matchers — and adds
// it to a float64 histogram allocated on the candidate's first counted
// row.
type refKernel struct {
	q      Query
	groups int
	cols   map[string]colstore.ColumnReader
	m      colstore.MeasureReader // the binned measure; nil for X columns
	hists  []*histogram.Histogram
	cnt    []int64 // per-candidate row tally; nil unless tallying
	ids    []int
}

func newRefKernel(p *Plan, tally bool) *refKernel {
	src := p.engine.src
	r := &refKernel{
		q:      p.query,
		groups: p.Groups(),
		cols:   map[string]colstore.ColumnReader{},
		hists:  make([]*histogram.Histogram, p.NumCandidates()),
	}
	for _, name := range src.Columns() {
		col, err := src.ColumnByName(name)
		if err != nil {
			panic(err)
		}
		r.cols[name] = col
	}
	if p.query.XMeasure != "" {
		m, err := src.MeasureByName(p.query.XMeasure)
		if err != nil {
			panic(err)
		}
		r.m = m
	}
	if tally {
		r.cnt = make([]int64, p.NumCandidates())
	}
	return r
}

// refHists is the reference loop's histograms over every block of p's
// table: the exact answer for each candidate (nil when it counts no row).
func refHists(p *Plan) []*histogram.Histogram {
	src := p.engine.src
	ref := newRefKernel(p, false)
	for b := 0; b < src.NumBlocks(); b++ {
		ref.block(src.BlockSpan(b))
	}
	return ref.hists
}

// block counts rows [lo, hi): every candidate a row belongs to gets one
// count in the row's group.
func (r *refKernel) block(lo, hi int) {
	for row := lo; row < hi; row++ {
		g := r.groupOf(row)
		if g < 0 {
			continue
		}
		r.ids = r.candidatesOf(row, r.ids[:0])
		for _, id := range r.ids {
			if r.hists[id] == nil {
				r.hists[id] = histogram.New(r.groups)
			}
			r.hists[id].Add(g)
			if r.cnt != nil {
				r.cnt[id]++
			}
		}
	}
}

// groupOf is row's group, or -1 when it has none: the bin of the
// measure value, or the X columns' codes in mixed radix (last column
// fastest).
func (r *refKernel) groupOf(row int) int {
	if r.m != nil {
		bin, ok := r.q.XBins.Bin(r.m.Value(row))
		if !ok {
			return -1
		}
		return bin
	}
	g := 0
	for _, name := range r.q.X {
		col := r.cols[name]
		g = g*col.Cardinality() + int(col.Code(row))
	}
	return g
}

// candidatesOf appends the ids of every candidate row belongs to: each
// predicate it satisfies, or its Z value's position among the known
// candidates (the dummy after them when absent), or its Z code.
func (r *refKernel) candidatesOf(row int, dst []int) []int {
	if len(r.q.CandidatePreds) > 0 {
		for i, pred := range r.q.CandidatePreds {
			if r.matches(pred, row) {
				dst = append(dst, i)
			}
		}
		return dst
	}
	col := r.cols[r.q.Z]
	code := col.Code(row)
	known := r.q.KnownCandidates
	if len(known) == 0 {
		return append(dst, int(code))
	}
	if i := slices.Index(known, col.Dictionary().Value(code)); i >= 0 {
		return append(dst, i)
	}
	return append(dst, len(known))
}

// matches evaluates a predicate tree over one row.
func (r *refKernel) matches(pred bitmap.Predicate, row int) bool {
	switch q := pred.(type) {
	case *bitmap.ValuePred:
		return r.cols[q.Column].Code(row) == q.Code
	case *bitmap.AndPred:
		for _, c := range q.Children {
			if !r.matches(c, row) {
				return false
			}
		}
		return true
	case *bitmap.OrPred:
		for _, c := range q.Children {
			if r.matches(c, row) {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("unsupported predicate %T", pred))
}

// TestAccumulatorMatchesScalarReference is the accumulator's property
// test: on every backend, for every plan shape, with the tally on and
// off, the kernels produce the reference loop's histograms cell for cell
// (nil histograms included), every block's whole tally equals the
// reference's, and the tallies sum to the histogram totals. Beside the
// accumulator table it runs the edges of the kernels' block cuts: a
// one-row table, a table shorter than one block, and a table of two full
// blocks, whose last cut ends at NumRows on the block grid.
func TestAccumulatorMatchesScalarReference(t *testing.T) {
	checkAccumulator(t, accumulatorTable(t))
	for _, rows := range []int{1, 37, 128} {
		t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
			checkAccumulator(t, testDataset(t, rows, 9, 6, 77))
		})
	}
}

// checkAccumulator holds the kernels to the reference loop over tbl's
// rows, as TestAccumulatorMatchesScalarReference describes.
func checkAccumulator(t *testing.T, tbl *colstore.Table) {
	backends := backendEngines(t, tbl)
	shapes := map[string]map[string]Query{}
	for backend, eng := range backends {
		shapes[backend] = accumulatorShapes(t, tbl, eng)
	}
	for name := range shapes["inmem"] {
		for _, tally := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tally=%v", name, tally), func(t *testing.T) {
				for backend, eng := range backends {
					src := eng.Source()
					t.Run(backend, func(t *testing.T) {
						p, err := eng.Prepare(shapes[backend][name])
						if err != nil {
							t.Fatal(err)
						}
						ref, kern := newRefKernel(p, tally), p.newKernel(tally)
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
								t.Fatalf("block %d tallied %v, reference %v", b, kern.cnt, ref.cnt)
							}
							for id, c := range kern.cnt {
								tallied[id] += c
							}
							clear(kern.cnt)
							clear(ref.cnt)
						}
						want, got := ref.hists, kern.fold()
						counted := false
						for id := range want {
							if (want[id] == nil) != (got[id] == nil) {
								t.Fatalf("candidate %d: histogram allocated = %v, reference %v", id, got[id] != nil, want[id] != nil)
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
									t.Fatalf("cell (%d,%d) = %v, reference %v", id, g, got[id].Count(g), want[id].Count(g))
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
	kern := p.newKernel(true)
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
