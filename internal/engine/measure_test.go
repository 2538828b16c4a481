package engine

import (
	"math"
	"testing"

	"fastmatch/internal/colstore"
	"fastmatch/internal/histogram"
)

// buildMeasureTable builds a tiny table where SUM(Y) per (Z, X) is known.
func buildMeasureTable(t *testing.T) *colstore.Table {
	t.Helper()
	b := colstore.NewBuilder(8)
	z, _ := b.AddColumn("Z")
	x, _ := b.AddColumn("X")
	m, _ := b.AddMeasure("Y")
	_ = m
	z.Dict.Intern("z0")
	z.Dict.Intern("z1")
	x.Dict.Intern("x0")
	x.Dict.Intern("x1")
	// z0: SUM over x0 = 300, over x1 = 100 (ratio 3:1)
	// z1: SUM over x0 = 100, over x1 = 300 (ratio 1:3)
	rows := []struct {
		z, x uint32
		y    float64
	}{
		{0, 0, 100}, {0, 0, 200}, {0, 1, 100},
		{1, 0, 100}, {1, 1, 200}, {1, 1, 100},
	}
	for _, r := range rows {
		if err := b.AppendCodes([]uint32{r.z, r.x}, []float64{r.y}); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestMeasureBiasedViewProportions(t *testing.T) {
	tbl := buildMeasureTable(t)
	view, err := MeasureBiasedView(tbl, "Y", 40_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	// COUNT proportions in the view ≈ SUM proportions in the source.
	z, _ := view.Column("Z")
	x, _ := view.Column("X")
	var z0x0, z0x1 float64
	for i := 0; i < view.NumRows(); i++ {
		if z.Code(i) == 0 {
			if x.Code(i) == 0 {
				z0x0++
			} else {
				z0x1++
			}
		}
	}
	ratio := z0x0 / z0x1
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("z0 SUM ratio = %g, want ≈ 3", ratio)
	}
}

func TestMeasureBiasedViewRunsQueries(t *testing.T) {
	tbl := buildMeasureTable(t)
	view, err := MeasureBiasedView(tbl, "Y", 20_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	e := New(view)
	params := testParams()
	params.K = 1
	params.Sigma = 0
	params.Stage1Samples = 0
	params.Epsilon = 0.15
	// Target: z0's SUM distribution = (0.75, 0.25).
	res, err := e.Run(Query{Z: "Z", X: []string{"X"}},
		Target{Counts: []float64{3, 1}}, Options{Params: params, Executor: FastMatch})
	if err != nil {
		t.Fatal(err)
	}
	if res.TopK[0].Label != "z0" {
		t.Fatalf("SUM query top match = %q, want z0", res.TopK[0].Label)
	}
}

func TestMeasureBiasedViewValidation(t *testing.T) {
	tbl := buildMeasureTable(t)
	if _, err := MeasureBiasedView(tbl, "Y", 0, 1); err == nil {
		t.Fatal("zero targetRows accepted")
	}
	if _, err := MeasureBiasedView(tbl, "missing", 100, 1); err == nil {
		t.Fatal("missing measure accepted")
	}
	// All-zero measure cannot be biased.
	b := colstore.NewBuilder(4)
	z, _ := b.AddColumn("Z")
	z.Dict.Intern("a")
	_, _ = b.AddMeasure("Y")
	_ = b.AppendCodes([]uint32{0}, []float64{0})
	if _, err := MeasureBiasedView(b.Build(), "Y", 100, 1); err == nil {
		t.Fatal("zero-sum measure accepted")
	}
}

func TestMeasureBiasedViewPreservesDictionaries(t *testing.T) {
	tbl := buildMeasureTable(t)
	view, err := MeasureBiasedView(tbl, "Y", 5_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	zSrc, _ := tbl.Column("Z")
	zDst, _ := view.Column("Z")
	if zDst.Cardinality() != zSrc.Cardinality() {
		t.Fatalf("dictionary cardinality changed: %d vs %d", zDst.Cardinality(), zSrc.Cardinality())
	}
	for code := 0; code < zSrc.Cardinality(); code++ {
		if zSrc.Dict.Value(uint32(code)) != zDst.Dict.Value(uint32(code)) {
			t.Fatal("dictionary codes misaligned between source and view")
		}
	}
}

func TestMeasureBiasedViewHistogramEstimate(t *testing.T) {
	// End-to-end: the reconstructed histogram for z1 over the view should
	// approximate its SUM distribution (0.25, 0.75).
	tbl := buildMeasureTable(t)
	view, err := MeasureBiasedView(tbl, "Y", 30_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := New(view).Prepare(Query{Z: "Z", X: []string{"X"}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := plan.ResolveTarget(Target{Candidate: "z1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := histogram.FromCounts([]float64{1, 3})
	if d := histogram.L1(h, want); d > 0.05 {
		t.Fatalf("z1 SUM histogram L1 error %g", d)
	}
}

// TestBackendEquivalenceMeasureBiasedView checks the derived-view path:
// a view built from the mmap backend must equal one built from the heap
// table (same seed, same multiplicities).
func TestBackendEquivalenceMeasureBiasedView(t *testing.T) {
	tbl := testDataset(t, 10_000, 10, 6, 9)
	mt := mmapTwin(t, tbl)
	va, err := MeasureBiasedView(tbl, "M", 5_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := MeasureBiasedView(mt, "M", 5_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if va.NumRows() != vb.NumRows() {
		t.Fatalf("view rows diverge: %d vs %d", va.NumRows(), vb.NumRows())
	}
	ca, _ := va.Column("Z")
	cb, _ := vb.Column("Z")
	for i := 0; i < va.NumRows(); i++ {
		if ca.Code(i) != cb.Code(i) {
			t.Fatalf("view row %d diverges", i)
		}
	}
}
