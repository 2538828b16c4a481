package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"fastmatch/internal/bitmap"
)

// TestMarkAnyActiveMatchesBlockProbe holds the word-major lookahead
// marking (Algorithm 3) to the per-block probe (Algorithm 2) over a
// plan's candidate block sets: for column candidates with and without a
// KnownCandidates dummy and for predicate candidates, on the in-memory
// backend and on an ingest view whose index is copied from 37-block
// seals that end inside a word, every mark[i] of a random tile equals
// anyActive(blocks, active, start+i) for a random active set — including
// tiles that start inside a word and run past the last block, which must
// read unmarked.
func TestMarkAnyActiveMatchesBlockProbe(t *testing.T) {
	tbl := testDataset(t, 20_000, 40, 6, 11) // 313 blocks of 64 rows
	wt := ingestTableFrom(t, tbl, 37*64)     // 37-block segments
	view, err := wt.View()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(view.Release)
	backends := map[string]*Engine{"inmem": New(tbl), "ingest": New(view)}
	for backend, eng := range backends {
		z, err := eng.Source().ColumnByName("Z")
		if err != nil {
			t.Fatal(err)
		}
		name := func(code int) string { return z.Dictionary().Value(uint32(code)) }
		queries := map[string]Query{
			"column": baseQuery(),
			"column-known-dummy": {Z: "Z", X: []string{"X"},
				KnownCandidates: []string{name(5), name(0), name(17)}},
			"predicates": predQuery(t, eng, []string{"X"}, "", nil, name(1), name(9), name(22), name(30)),
		}
		for qname, q := range queries {
			t.Run(fmt.Sprintf("%s/%s", backend, qname), func(t *testing.T) {
				p, err := eng.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				nb, n := eng.Source().NumBlocks(), p.NumCandidates()
				rng := rand.New(rand.NewSource(int64(len(qname))))
				marked, unmarked := 0, 0
				for trial := 0; trial < 300; trial++ {
					var active []int
					keep := rng.Float64()
					for id := 0; id < n; id++ {
						if rng.Float64() < keep {
							active = append(active, id)
						}
					}
					start := rng.Intn(nb)
					mark := make([]bool, rng.Intn(1100)+1)
					for i := range mark {
						mark[i] = true // MarkAny must overwrite every entry
					}
					bitmap.MarkAny(p.cand.blocks, active, start, mark)
					for i, got := range mark {
						b := start + i
						want := b < nb && anyActive(p.cand.blocks, active, b)
						if got != want {
							t.Fatalf("trial %d: active %v, tile at %d: mark[%d] = %v, block probe %v", trial, active, start, i, got, want)
						}
						if got {
							marked++
						} else if b < nb {
							unmarked++
						}
					}
				}
				if marked == 0 || unmarked == 0 {
					t.Fatalf("%d in-range blocks marked, %d unmarked: the comparison is vacuous", marked, unmarked)
				}
			})
		}
	}
}
