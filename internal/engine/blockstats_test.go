package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
)

// Block statistics must tell the truth: a pruned block holds no
// qualifying row, a candidate's planned block set holds every block with
// a matching row, and the block summary equals the builder's words on
// every backend. TestConformanceMatrix holds runs with and without the
// skip masks to one answer.

// TestSkipMasksPruneProvablyEmptyBlocks re-reads every block the planner
// marked prunable and asserts the statistics told the truth: group-side
// prunes contain no row mapping to any group, candidate-side prunes no
// row matching any predicate.
func TestSkipMasksPruneProvablyEmptyBlocks(t *testing.T) {
	tbl := skipTestTable(t)
	for backend, eng := range backendEngines(t, tbl) {
		for qname, q := range skipQueries(t, eng) {
			t.Run(fmt.Sprintf("%s/%s", backend, qname), func(t *testing.T) {
				p, err := eng.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				if p.skipAll == nil {
					t.Fatal("pruning query built no skip mask")
				}
				src := eng.Source()
				ref := newRefKernel(p, false)
				pruned := 0
				for b := 0; b < src.NumBlocks(); b++ {
					if !p.skipAll.Get(b) {
						continue
					}
					pruned++
					grpPruned := p.skipGrp != nil && p.skipGrp.Get(b)
					lo, hi := src.BlockSpan(b)
					var buf []int
					for row := lo; row < hi; row++ {
						if grpPruned {
							if g := ref.groupOf(row); g >= 0 {
								t.Fatalf("block %d group-pruned but row %d maps to group %d", b, row, g)
							}
							continue
						}
						// Candidate-side prune: no predicate may match.
						if buf = ref.candidatesOf(row, buf[:0]); len(buf) > 0 {
							t.Fatalf("block %d candidate-pruned but row %d matches candidate %d", b, row, buf[0])
						}
					}
				}
				if pruned == 0 {
					t.Fatal("skip mask is empty")
				}
			})
		}
	}
}

// TestPredicateCandidateBlockSets checks every candidate's planned block
// set against a naive row scan, per candidate rather than through the
// union the skip mask sees. Random Value/And/Or trees over Z and X run on
// every backend. The set must hold every block with a matching row; for
// trees without an AND (leaves and ORs of them) it must be exactly that
// set; and for every tree it must be the set the index algebra defines
// (a leaf's blocks, AND as intersection, OR as union). The compiled row
// matcher must agree with the naive evaluation on every row.
func TestPredicateCandidateBlockSets(t *testing.T) {
	tbl := skipTestTable(t)
	for backend, eng := range backendEngines(t, tbl) {
		t.Run(backend, func(t *testing.T) {
			src := eng.Source()
			codes := map[string][]uint32{}
			cards := map[string]int{}
			for _, name := range []string{"Z", "X"} {
				col, err := src.ColumnByName(name)
				if err != nil {
					t.Fatal(err)
				}
				codes[name], cards[name] = col.Codes(0, src.NumRows()), col.Cardinality()
			}
			var gen func(rng *rand.Rand, depth int) bitmap.Predicate
			gen = func(rng *rand.Rand, depth int) bitmap.Predicate {
				if depth == 0 || rng.Intn(3) == 0 {
					col := []string{"Z", "X"}[rng.Intn(2)]
					return &bitmap.ValuePred{Column: col, Code: uint32(rng.Intn(cards[col]))}
				}
				kids := make([]bitmap.Predicate, 1+rng.Intn(3))
				for i := range kids {
					kids[i] = gen(rng, depth-1)
				}
				if rng.Intn(2) == 0 {
					return &bitmap.AndPred{Children: kids}
				}
				return &bitmap.OrPred{Children: kids}
			}
			// fold evaluates p over one row (lo == hi-1) or, with the leaf
			// test widened to a whole block, by the index algebra.
			var fold func(p bitmap.Predicate, lo, hi int) bool
			fold = func(p bitmap.Predicate, lo, hi int) bool {
				switch q := p.(type) {
				case *bitmap.ValuePred:
					return slices.Contains(codes[q.Column][lo:hi], q.Code)
				case *bitmap.AndPred:
					for _, c := range q.Children {
						if !fold(c, lo, hi) {
							return false
						}
					}
					return true
				default:
					for _, c := range p.(*bitmap.OrPred).Children {
						if fold(c, lo, hi) {
							return true
						}
					}
					return false
				}
			}
			var exact func(p bitmap.Predicate) bool
			exact = func(p bitmap.Predicate) bool {
				if q, ok := p.(*bitmap.OrPred); ok {
					for _, c := range q.Children {
						if !exact(c) {
							return false
						}
					}
					return true
				}
				_, leaf := p.(*bitmap.ValuePred)
				return leaf
			}
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 40; trial++ {
				preds := []bitmap.Predicate{gen(rng, 3), gen(rng, 3), gen(rng, 3)}
				p, err := eng.Prepare(Query{CandidatePreds: preds, X: []string{"X"}})
				if err != nil {
					t.Fatal(err)
				}
				for i, pred := range preds {
					got := p.cand.blocks[i]
					for b := 0; b < src.NumBlocks(); b++ {
						lo, hi := src.BlockSpan(b)
						holds := false
						for row := lo; row < hi; row++ {
							want := fold(pred, row, row+1)
							if matched := p.cand.matchers[i](row); matched != want {
								t.Fatalf("%s: row %d matcher says %v, naive scan %v", pred, row, matched, want)
							}
							holds = holds || want
						}
						if holds && !got.Get(b) {
							t.Fatalf("%s: block %d holds a matching row but is outside the planned set", pred, b)
						}
						if !holds && got.Get(b) && exact(pred) {
							t.Fatalf("%s: block %d holds no matching row but is in the exact planned set", pred, b)
						}
						if want := fold(pred, lo, hi); got.Get(b) != want {
							t.Fatalf("%s: block %d planned %v, index algebra %v", pred, b, got.Get(b), want)
						}
					}
				}
			}
		})
	}
}

// TestPastCapIndexMatchesBuilder covers columns past the presence cap:
// with one row per block, 20k blocks and a 10k-value Z, Z's presence
// bitset exceeds it, so no backend keeps presence words for Z and
// bitmap.Build runs the block-summary builder itself. On the in-memory
// table, the heap snapshot, the mmap snapshot and an ingest view with an
// unsealed tail, Engine.Index equals the builder's words over the raw
// table bit for bit.
func TestPastCapIndexMatchesBuilder(t *testing.T) {
	const rows, card = 20_000, 10_000
	zd, xd := colstore.NewDictionary(), colstore.NewDictionary()
	for v := 0; v < card; v++ {
		zd.Intern(fmt.Sprintf("z%d", v))
	}
	for v := 0; v < 4; v++ {
		xd.Intern(fmt.Sprintf("x%d", v))
	}
	zc, xc, m := make([]uint32, rows), make([]uint32, rows), make([]float64, rows)
	for i := range zc {
		// Codes first appear in code order, so the ingest twin interns
		// the same codes.
		zc[i], xc[i], m[i] = uint32(i%card), uint32(i%4), float64(i%97)
	}
	tbl, err := colstore.NewTable(1, rows,
		[]*colstore.Column{colstore.NewColumn("Z", zd, zc), colstore.NewColumn("X", xd, xc)},
		[]*colstore.MeasureColumn{colstore.NewMeasureColumn("m", m)})
	if err != nil {
		t.Fatal(err)
	}
	if colstore.PresenceFits(card, rows) {
		t.Fatalf("%d values × %d blocks fit the presence cap", card, rows)
	}
	wpv := (rows + 63) / 64
	ref := colstore.TableBlockStats{Stride: wpv, Presence: map[string][]uint64{"Z": make([]uint64, card*wpv)}}
	if err := ref.Summarize(tbl, 0, rows); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/pastcap.fms"
	if err := colstore.WriteSnapshotFile(tbl, path); err != nil {
		t.Fatal(err)
	}
	backends := []struct {
		name string
		src  func() colstore.Reader
	}{
		{"inmem", func() colstore.Reader { return tbl }},
		{"heap-snapshot", func() colstore.Reader {
			heap, err := colstore.ReadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return heap
		}},
		{"mmap", func() colstore.Reader { return mmapTwin(t, tbl) }},
		{"ingest-tail", func() colstore.Reader {
			wt := ingestTableFrom(t, tbl, 16_384)
			if sealed := wt.Stats().SealedRows; sealed != 16_384 {
				t.Fatalf("%d rows sealed, want 16384 and an unsealed tail", sealed)
			}
			v, err := wt.View()
			if err != nil {
				t.Fatal(err)
			}
			return v
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			src := b.src()
			if _, _, ok := blockStatsOf(src).PresenceWords("Z"); ok {
				t.Fatal("backend offers presence words past the cap")
			}
			idx, err := New(src).Index("Z")
			if err != nil {
				t.Fatal(err)
			}
			if idx.NumValues() != card || idx.NumBlocks() != rows {
				t.Fatalf("index is %d values × %d blocks, want %d × %d", idx.NumValues(), idx.NumBlocks(), card, rows)
			}
			for v := 0; v < card; v++ {
				bs, err := idx.ValueBitset(uint32(v))
				if err != nil {
					t.Fatal(err)
				}
				for w := 0; w < wpv; w++ {
					if got, want := bs.Word(w), ref.Presence["Z"][v*wpv+w]; got != want {
						t.Fatalf("value %d word %d = %#x, builder %#x", v, w, got, want)
					}
				}
			}
		})
	}
}
