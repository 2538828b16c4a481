package bitmap_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
)

// A predicate tree is only a description; the engine is its one
// compiler, into a row matcher and a block set drawn from the columns'
// bitmap indexes. These tests pin what a tree means through the
// engine's public API: which rows a candidate counts, that block
// skipping never drops one of them (against a count that evaluates the
// predicate row by row), and which trees are rejected.

// buildTwoColTable builds a table with predicate columns z1, z2 and a
// histogram column x (row i has x = i mod 2).
func buildTwoColTable(t testing.TB, blockSize int, z1, z2 []uint32, card int) *colstore.Table {
	t.Helper()
	b := colstore.NewBuilder(blockSize)
	c1, _ := b.AddColumn("z1")
	c2, _ := b.AddColumn("z2")
	cx, _ := b.AddColumn("x")
	for v := 0; v < card; v++ {
		c1.Dict.Intern(string(rune('a' + v)))
		c2.Dict.Intern(string(rune('A' + v)))
	}
	cx.Dict.Intern("even")
	cx.Dict.Intern("odd")
	for i := range z1 {
		if err := b.AppendCodes([]uint32{z1[i], z2[i], uint32(i % 2)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// candidateCounts runs an exact scan with pred as the only candidate and
// returns its x histogram counts and the plan's prunable block count.
func candidateCounts(t testing.TB, eng *engine.Engine, pred bitmap.Predicate) ([]float64, int) {
	t.Helper()
	plan, err := eng.Prepare(engine.Query{X: []string{"x"}, CandidatePreds: []bitmap.Predicate{pred}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.RunContext(context.Background(), engine.Target{Uniform: true}, engine.Options{
		Params: core.Params{
			K: 1, Epsilon: 0.1, Delta: 0.05, Sigma: 0, Metric: histogram.MetricL1,
		},
		Executor: engine.Scan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 1 || res.TopK[0].Histogram == nil {
		t.Fatalf("%s: scan returned %d matches", pred, len(res.TopK))
	}
	return res.TopK[0].Histogram.Counts(), plan.Explain().PrunableBlocks
}

func TestPredicateMatching(t *testing.T) {
	tbl := buildTwoColTable(t, 2, []uint32{0, 1, 0, 1}, []uint32{0, 0, 1, 1}, 2)
	eng := engine.New(tbl)
	p1 := &bitmap.ValuePred{Column: "z1", Code: 0}
	p2 := &bitmap.ValuePred{Column: "z2", Code: 1}
	// Rows (z1, z2, x): (0,0,even) (1,0,odd) (0,1,even) (1,1,odd).
	for _, tc := range []struct {
		pred      bitmap.Predicate
		even, odd float64
	}{
		{p1, 2, 0},
		{p2, 1, 1},
		{&bitmap.AndPred{Children: []bitmap.Predicate{p1, p2}}, 1, 0},
		{&bitmap.OrPred{Children: []bitmap.Predicate{p1, p2}}, 2, 1},
		{&bitmap.ValuePred{Column: "z1", Code: 1}, 0, 2},
	} {
		got, _ := candidateCounts(t, eng, tc.pred)
		if got[0] != tc.even || got[1] != tc.odd {
			t.Fatalf("%s counts %v, want [%g %g]", tc.pred, got, tc.even, tc.odd)
		}
	}
	// A leaf over a missing column matches nothing because it is never
	// planned: Prepare rejects it.
	q := engine.Query{X: []string{"x"}, CandidatePreds: []bitmap.Predicate{&bitmap.ValuePred{Column: "other", Code: 0}}}
	if _, err := eng.Prepare(q); err == nil {
		t.Fatal("missing column accepted")
	}
}

// Property: predicate block sets are sound — no block holding a row that
// matches the predicate is ever pruned. This is the safety block
// skipping needs: an exact scan that skips outside the set counts the
// same rows as a naive count that evaluates the predicate on every row.
// For a leaf and an OR of leaves the set is exact, so the pruned blocks
// are exactly those without a matching row.
func TestPredicateEstimateSoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(400) + 4
		card := 3
		z1 := make([]uint32, n)
		z2 := make([]uint32, n)
		for i := range z1 {
			z1[i] = uint32(rng.Intn(card))
			z2[i] = uint32(rng.Intn(card))
		}
		tbl := buildTwoColTable(t, rng.Intn(8)+2, z1, z2, card)
		eng := engine.New(tbl)
		a, b := uint32(rng.Intn(card)), uint32(rng.Intn(card))
		pA := &bitmap.ValuePred{Column: "z1", Code: a}
		pB := &bitmap.ValuePred{Column: "z2", Code: b}
		for _, tc := range []struct {
			pred    bitmap.Predicate
			matches func(i int) bool
			exact   bool
		}{
			{pA, func(i int) bool { return z1[i] == a }, true},
			{&bitmap.AndPred{Children: []bitmap.Predicate{pA, pB}}, func(i int) bool { return z1[i] == a && z2[i] == b }, false},
			{&bitmap.OrPred{Children: []bitmap.Predicate{pA, pB}}, func(i int) bool { return z1[i] == a || z2[i] == b }, true},
		} {
			want := make([]float64, 2)
			emptyBlocks := 0
			for blk := 0; blk < tbl.NumBlocks(); blk++ {
				lo, hi := tbl.BlockSpan(blk)
				held := false
				for i := lo; i < hi; i++ {
					if tc.matches(i) {
						want[i%2]++
						held = true
					}
				}
				if !held {
					emptyBlocks++
				}
			}
			skipped, pruned := candidateCounts(t, eng, tc.pred)
			for j := range want {
				if skipped[j] != want[j] {
					t.Logf("seed %d %s: skip %v, naive %v", seed, tc.pred, skipped, want)
					return false
				}
			}
			if pruned > emptyBlocks || (tc.exact && pruned != emptyBlocks) {
				t.Logf("seed %d %s: %d blocks pruned, %d hold no match", seed, tc.pred, pruned, emptyBlocks)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// An empty AND is vacuously true of every row, yet no block holds a
// witness for it, so its block set would be empty and its count would
// depend on block skipping. Prepare rejects it, alone or nested, and
// likewise an empty OR.
func TestEmptyAndPredEstimate(t *testing.T) {
	tbl := buildTwoColTable(t, 2, []uint32{0, 1, 0, 1}, []uint32{0, 0, 1, 1}, 2)
	eng := engine.New(tbl)
	z := &bitmap.ValuePred{Column: "z1", Code: 0}
	for _, pred := range []bitmap.Predicate{
		&bitmap.AndPred{},
		&bitmap.OrPred{Children: []bitmap.Predicate{z, &bitmap.AndPred{}}},
		&bitmap.AndPred{Children: []bitmap.Predicate{z, &bitmap.OrPred{}}},
	} {
		q := engine.Query{X: []string{"x"}, CandidatePreds: []bitmap.Predicate{pred}}
		if _, err := eng.Prepare(q); err == nil {
			t.Errorf("%s accepted", pred)
		}
	}
}
