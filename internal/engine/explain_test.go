package engine

import (
	"testing"

	"fastmatch/internal/colstore"
)

// TestExplainKinds holds Explain's candidate and group kinds, and the
// candidate and group counts beside them, to each candidate source ×
// group source a plan can hold.
func TestExplainKinds(t *testing.T) {
	tbl := testDataset(t, 5000, 9, 6, 3) // Z: 9 values, X: 6, W: 4
	eng := New(tbl)
	z, err := tbl.ColumnByName("Z")
	if err != nil {
		t.Fatal(err)
	}
	bins, err := colstore.NewUniformBinner(0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	grps := []struct {
		kind    string
		x       []string
		measure string
		bins    *colstore.Binner
		n       int
	}{
		{kind: "single", x: []string{"X"}, n: 6},
		{kind: "multi", x: []string{"X", "W"}, n: 6 * 4},
		{kind: "binned", measure: "M", bins: bins, n: 5},
	}
	for _, g := range grps {
		cands := []struct {
			kind string
			q    Query
			n    int
		}{
			{"column", Query{Z: "Z", X: g.x, XMeasure: g.measure, XBins: g.bins}, 9},
			{"predicates", predQuery(t, eng, g.x, g.measure, g.bins, z.Dictionary().Value(0), z.Dictionary().Value(4)), 2},
		}
		for _, c := range cands {
			t.Run(c.kind+"/"+g.kind, func(t *testing.T) {
				p, err := eng.Prepare(c.q)
				if err != nil {
					t.Fatal(err)
				}
				info := p.Explain()
				if info.CandidateKind != c.kind || info.Candidates != c.n {
					t.Errorf("candidates: %q × %d, want %q × %d", info.CandidateKind, info.Candidates, c.kind, c.n)
				}
				if info.GroupKind != g.kind || info.Groups != g.n {
					t.Errorf("groups: %q × %d, want %q × %d", info.GroupKind, info.Groups, g.kind, g.n)
				}
			})
		}
	}
}
