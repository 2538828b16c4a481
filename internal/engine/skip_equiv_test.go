package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/ingest"
)

// Skip-equivalence suite: statistics-based block pruning must never
// change a result. Every executor, on every storage backend, must return
// byte-identical results (including the ranked top-k and partial
// results) to the same plan run without its skip masks — the only
// permitted deltas are the documented IOStats counters (BlocksPruned,
// and the lower BlocksRead/TuplesRead that pruning buys). A property
// test closes the loop by re-reading every pruned block and proving it
// holds no qualifying row. The exact executors' histograms must also
// equal the per-row reference loop's (refHists); the kernels under every
// executor are held to that loop block by block in
// TestAccumulatorMatchesScalarReference.

// withoutSkipMasks returns a copy of p that prunes nothing: the skip-off
// reference every pruning run is compared against.
func withoutSkipMasks(p *Plan) *Plan {
	c := *p
	c.skipAll, c.skipGrp = nil, nil
	return &c
}

// skipTestTable builds a table engineered so both prune sources fire:
// Z runs in contiguous regions (a predicate over a value covers only its
// region's blocks, so the candidate-union complement is large) and the
// measure M equals the row index (blocks have tight disjoint ranges, so
// a binner over a sub-range proves most blocks out of range).
func skipTestTable(t testing.TB) *colstore.Table {
	t.Helper()
	const (
		rows      = 8192
		blockSize = 64
		zCard     = 8
		xCard     = 8
	)
	zDict := colstore.NewDictionary()
	xDict := colstore.NewDictionary()
	zc := make([]uint32, rows)
	xc := make([]uint32, rows)
	mv := make([]float64, rows)
	for row := 0; row < rows; row++ {
		zc[row] = zDict.Intern(fmt.Sprintf("z%d", row/(rows/zCard)))
		xc[row] = xDict.Intern(fmt.Sprintf("x%d", row%xCard))
		mv[row] = float64(row)
	}
	tbl, err := colstore.NewTable(blockSize, rows,
		[]*colstore.Column{
			colstore.NewColumn("Z", zDict, zc),
			colstore.NewColumn("X", xDict, xc),
		},
		[]*colstore.MeasureColumn{colstore.NewMeasureColumn("M", mv)})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// skipTestBackends returns the same data behind all three storage
// backends, the ingest one twice: with its sealed segments in memory and
// compacted into a mapped segment file.
func skipTestBackends(t testing.TB, tbl *colstore.Table) map[string]*Engine {
	t.Helper()
	return map[string]*Engine{
		"inmem":            New(tbl),
		"mmap":             New(mmapTwin(t, tbl)),
		"ingest":           New(ingestTwin(t, tbl)),
		"ingest-compacted": New(compactedIngestTwin(t, tbl)),
	}
}

// compactedIngestTwin is ingestTwin with CompactNow run before the view
// is taken, so block skipping reads file-backed segment statistics. Every
// sealed segment is compacted; rows past the last full 4096-row seal
// stay in the live tail.
func compactedIngestTwin(t testing.TB, tbl *colstore.Table) *ingest.TableView {
	t.Helper()
	const sealRows = 4096
	wt := ingestTableFrom(t, tbl, sealRows)
	if err := wt.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if st := wt.Stats(); st.SegmentFiles == 0 || st.PersistedRows != tbl.NumRows()-tbl.NumRows()%sealRows {
		t.Fatalf("compaction left %d segment files over %d of %d rows", st.SegmentFiles, st.PersistedRows, tbl.NumRows())
	}
	v, err := wt.View()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Release)
	return v
}

// predQuery compiles a predicate-candidate query against one engine (the
// values resolve to codes in that engine's backend).
func predQuery(t testing.TB, eng *Engine, x []string, xMeasure string, bins *colstore.Binner, values ...string) Query {
	t.Helper()
	col, err := eng.Source().ColumnByName("Z")
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]bitmap.Predicate, len(values))
	for i, v := range values {
		code, ok := col.Dictionary().Code(v)
		if !ok {
			t.Fatalf("no code for %q", v)
		}
		preds[i] = &bitmap.ValuePred{Column: "Z", Code: code}
	}
	return Query{CandidatePreds: preds, X: x, XMeasure: xMeasure, XBins: bins}
}

// subRangeBinner bins [1024, 3072) in 4 bins — rows outside bin to no
// group, and blocks wholly outside are provably prunable.
func subRangeBinner(t testing.TB) *colstore.Binner {
	t.Helper()
	b, err := colstore.NewBinner([]float64{1024, 1536, 2048, 2560, 3072})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// skipQueries enumerates the pruning-triggering query shapes against one
// engine. Every returned query must produce a non-empty skipAll mask on
// a stats-carrying backend.
func skipQueries(t testing.TB, eng *Engine) map[string]Query {
	t.Helper()
	return map[string]Query{
		// Candidate-side pruning: two region predicates cover 32 of 128
		// blocks, so 96 are outside the candidate union.
		"pred-cands": predQuery(t, eng, []string{"X"}, "", nil, "z0", "z3"),
		// Group-side pruning: the binner spans rows [1024, 3072), so
		// blocks entirely below or above are out of range.
		"binned-measure": {Z: "Z", XMeasure: "M", XBins: subRangeBinner(t)},
		// Both prune sources at once.
		"pred-and-binned": predQuery(t, eng, nil, "M", subRangeBinner(t), "z1", "z5"),
	}
}

// canonicalResultNoIO is canonicalResult with IOStats zeroed as well:
// the comparison form for runs that differ only in the documented I/O
// counter deltas pruning causes.
func canonicalResultNoIO(t testing.TB, res *Result) string {
	t.Helper()
	c := *res
	c.Duration = 0
	c.IO = IOStats{}
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSkipOnOffByteIdentical(t *testing.T) {
	tbl := skipTestTable(t)
	for backend, eng := range skipTestBackends(t, tbl) {
		for qname, q := range skipQueries(t, eng) {
			for _, exec := range allExecutors() {
				t.Run(fmt.Sprintf("%s/%s/%s", backend, qname, exec), func(t *testing.T) {
					p, err := eng.Prepare(q)
					if err != nil {
						t.Fatal(err)
					}
					opts := equivOptions(exec, eng.Source().NumBlocks())
					skipOn, err := p.RunContext(context.Background(), Target{Uniform: true}, opts)
					if err != nil {
						t.Fatalf("skip on: %v", err)
					}
					skipOff, err := withoutSkipMasks(p).RunContext(context.Background(), Target{Uniform: true}, opts)
					if err != nil {
						t.Fatalf("skip off: %v", err)
					}
					if got, want := canonicalResultNoIO(t, skipOn), canonicalResultNoIO(t, skipOff); got != want {
						t.Fatalf("pruning run diverges from the full read:\n%s\nvs\n%s", got, want)
					}
					if skipOn.IO.BlocksPruned == 0 {
						t.Fatal("pruning query pruned no blocks")
					}
					if skipOff.IO.BlocksPruned != 0 {
						t.Fatalf("the plan without skip masks still pruned %d blocks", skipOff.IO.BlocksPruned)
					}
					if skipOn.IO.TuplesRead >= skipOff.IO.TuplesRead {
						t.Fatalf("pruning read no fewer tuples: %d vs %d", skipOn.IO.TuplesRead, skipOff.IO.TuplesRead)
					}
					if !skipOn.Exact {
						return
					}
					ref := refHists(p)
					for _, m := range skipOn.TopK {
						for g := 0; g < p.Groups(); g++ {
							want := 0.0
							if ref[m.ID] != nil {
								want = ref[m.ID].Count(g)
							}
							if got := m.Histogram.Count(g); got != want {
								t.Fatalf("candidate %s cell %d = %v, reference %v", m.Label, g, got, want)
							}
						}
					}
				})
			}
		}
	}
}

// TestSkipMasksPruneProvablyEmptyBlocks re-reads every block the planner
// marked prunable and asserts the statistics told the truth: group-side
// prunes contain no row mapping to any group, candidate-side prunes no
// row matching any predicate.
func TestSkipMasksPruneProvablyEmptyBlocks(t *testing.T) {
	tbl := skipTestTable(t)
	for backend, eng := range skipTestBackends(t, tbl) {
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

// TestSkipConcurrentAgreement hammers the pruning path from several
// goroutines per backend (run under -race) and checks every run agrees
// with the same plan run without its skip masks.
func TestSkipConcurrentAgreement(t *testing.T) {
	tbl := skipTestTable(t)
	for backend, eng := range skipTestBackends(t, tbl) {
		for _, exec := range []Executor{Scan, ParallelScan, FastMatch} {
			t.Run(fmt.Sprintf("%s/%s", backend, exec), func(t *testing.T) {
				q := predQuery(t, eng, nil, "M", subRangeBinner(t), "z1", "z5")
				p, err := eng.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := withoutSkipMasks(p).RunContext(context.Background(), Target{Uniform: true},
					equivOptions(exec, eng.Source().NumBlocks()))
				if err != nil {
					t.Fatal(err)
				}
				want := canonicalResultNoIO(t, ref)
				var wg sync.WaitGroup
				errs := make(chan error, 8)
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, err := eng.Run(q, Target{Uniform: true}, equivOptions(exec, eng.Source().NumBlocks()))
						if err != nil {
							errs <- err
							return
						}
						if got := canonicalResultNoIO(t, res); got != want {
							errs <- fmt.Errorf("concurrent pruned run diverged from reference")
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
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
	for backend, eng := range skipTestBackends(t, tbl) {
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
					got := p.multi.candidateBlocks(i)
					for b := 0; b < src.NumBlocks(); b++ {
						lo, hi := src.BlockSpan(b)
						holds := false
						for row := lo; row < hi; row++ {
							want := fold(pred, row, row+1)
							if matched := p.multi.matchers[i](row); matched != want {
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
