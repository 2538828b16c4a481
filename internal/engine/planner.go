package engine

import (
	"fmt"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// Plan is a resolved query: its candidates and groups bound to the
// engine's table and indexes. Planning resolves columns, builds (or fetches
// cached) bitmap indexes, and compiles predicate matchers once; the
// resulting Plan is immutable and safe for concurrent use, so callers
// issuing the same query shape repeatedly — or from many goroutines —
// should Prepare once and reuse the Plan across runs.
type Plan struct {
	engine *Engine
	query  Query
	cand   candidates
	grp    groups
	// skipAll / skipGrp mark blocks the storage backend's block statistics
	// prove free of qualifying rows; executors consume them virtually
	// (rows charged to guards and totals, nothing read) so results stay
	// byte-identical to a pruning-off run. skipGrp holds only the
	// group-side (measure-range) prunes; skipAll additionally folds in the
	// candidate-side prunes (complement of the predicate candidates' block
	// union), so skipGrp ⊆ skipAll. The split exists because SyncMatch and
	// FastMatch already skip non-candidate blocks via AnyActive without
	// charging samples — pruning those virtually would change Drawn and
	// break byte-identity — so they apply only skipGrp, after the
	// AnyActive check. Both are built once at Prepare from
	// option-independent inputs, keeping Plans cache- and
	// concurrency-safe, and every run applies them.
	skipAll *bitmap.Bitset
	skipGrp *bitmap.Bitset
	// blockSize/rows cache the table geometry: executors consuming a
	// pruned block virtually must not call BlockSpan — a
	// simulated-latency backend would sleep for a block nobody reads.
	blockSize int
	rows      int
}

// blockRows is block b's row count from the geometry alone (the last
// block may be short).
func (p *Plan) blockRows(b int) int64 {
	lo := b * p.blockSize
	hi := lo + p.blockSize
	if hi > p.rows {
		hi = p.rows
	}
	return int64(hi - lo)
}

// PlanTooLargeError reports a query whose histograms would need more
// than maxKernelCells cells (candidates × groups). Every executor
// allocates its histograms up front, so Prepare rejects such a shape
// before any run could exhaust memory. Below the cap a run's peak is 8
// bytes per cell for each worker's int64 accumulator, plus 8 bytes per
// cell for each float64 histogram set the run holds: Scan's per-worker
// partials and their merged set, HistSim's cumulative estimates and the
// current round's batch. At the cap that is 32 MiB per worker and 32
// MiB per set. A serving layer maps it to a 4xx response.
type PlanTooLargeError struct {
	Candidates, Groups int
}

// Error implements error.
func (e *PlanTooLargeError) Error() string {
	return fmt.Sprintf("engine: query shape of %d candidates × %d groups needs %d histogram cells, over the limit of %d",
		e.Candidates, e.Groups, int64(e.Candidates)*int64(e.Groups), maxKernelCells)
}

// Prepare resolves a query into a reusable Plan. Engine.Run and
// Engine.RunContext are one-shot wrappers around Prepare; prepare
// explicitly to amortize planning across repeated runs.
func (e *Engine) Prepare(q Query) (*Plan, error) { return e.PrepareTraced(q, nil) }

// PrepareTraced is Prepare recording the planning phases — group and
// candidate resolution (including bitmap-index builds on cold columns)
// and skip-mask construction — as spans under a "plan" root in tr. A nil
// tr makes it identical to Prepare.
func (e *Engine) PrepareTraced(q Query, tr *trace.Trace) (*Plan, error) {
	psp := tr.Start("plan")
	defer psp.End()
	sp := psp.Child("groups")
	grp, err := e.planGroups(q)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = psp.Child("candidates")
	cand, err := e.planCandidates(q)
	sp.End()
	if err != nil {
		return nil, err
	}
	if cells := int64(len(cand.blocks)) * int64(grp.n); cells > maxKernelCells {
		return nil, &PlanTooLargeError{Candidates: len(cand.blocks), Groups: grp.n}
	}
	p := &Plan{engine: e, query: q, cand: cand, grp: grp, blockSize: e.src.BlockSize(), rows: e.src.NumRows()}
	sp = psp.Child("skip_masks")
	p.buildSkipMasks()
	sp.End()
	return p, nil
}

// blockStatsOf surfaces a backend's block statistics, or nil when the
// backend (or, for a wrapper like ThrottledReader, its inner reader)
// carries none.
func blockStatsOf(src colstore.Reader) colstore.BlockStats {
	if br, ok := src.(colstore.BlockStatsReader); ok {
		return br.BlockStats()
	}
	return nil
}

// buildSkipMasks derives the plan's block-skip masks from the backend's
// block statistics and the plan shape. Group-side: a binned-measure query
// skips blocks whose measure range lies entirely outside the binner's
// edge span (Bin assigns no group to such values, so no row in the block
// can count). Candidate-side: a predicate-candidate query skips blocks
// outside the union of all candidates' possible blocks (no predicate can
// match there). Both prunes are sound by construction: a skipped block
// provably contributes to no histogram, which a test re-reads to verify.
func (p *Plan) buildSkipMasks() {
	nb := p.engine.src.NumBlocks()
	if nb == 0 {
		return
	}
	var grpMask *bitmap.Bitset
	if p.grp.binner != nil {
		if stats := blockStatsOf(p.engine.src); stats != nil {
			edges := p.grp.binner.Edges()
			if len(edges) >= 2 {
				name := p.query.XMeasure
				for b := 0; b < nb; b++ {
					lo, hi, ok := stats.MeasureRange(name, b)
					if ok && (hi < edges[0] || lo > edges[len(edges)-1]) {
						if grpMask == nil {
							grpMask = bitmap.NewBitset(nb)
						}
						grpMask.Set(b)
					}
				}
			}
		}
	}
	var candMask *bitmap.Bitset
	if p.cand.matchers != nil {
		union := bitmap.NewBitset(nb)
		for _, bs := range p.cand.blocks {
			_ = union.Or(bs) // lengths match by construction
		}
		for b := 0; b < nb; b++ {
			if !union.Get(b) {
				if candMask == nil {
					candMask = bitmap.NewBitset(nb)
				}
				candMask.Set(b)
			}
		}
	}
	p.skipGrp = grpMask
	switch {
	case candMask == nil:
		p.skipAll = grpMask
	case grpMask == nil:
		p.skipAll = candMask
	default:
		all := bitmap.NewBitset(nb)
		_ = all.Or(grpMask)
		_ = all.Or(candMask)
		p.skipAll = all
	}
}

// planCandidates resolves the candidates: predicate candidates when
// CandidatePreds is set, otherwise the distinct values of the Z column
// backed by its bitmap index.
func (e *Engine) planCandidates(q Query) (candidates, error) {
	if len(q.CandidatePreds) > 0 {
		return e.newPredicateCandidates(q.CandidatePreds)
	}
	if q.Z == "" {
		return candidates{}, fmt.Errorf("engine: query needs Z or CandidatePreds")
	}
	col, err := e.src.ColumnByName(q.Z)
	if err != nil {
		return candidates{}, err
	}
	idx, err := e.Index(q.Z)
	if err != nil {
		return candidates{}, err
	}
	return newColumnCandidates(col, e.src.NumRows(), idx, q.KnownCandidates)
}

// planGroups resolves the groups: binned measure groups, a single
// categorical column, or the cross product of several.
func (e *Engine) planGroups(q Query) (groups, error) {
	if q.XMeasure != "" {
		if q.XBins == nil {
			return groups{}, fmt.Errorf("engine: XMeasure %q needs XBins", q.XMeasure)
		}
		m, err := e.src.MeasureByName(q.XMeasure)
		if err != nil {
			return groups{}, err
		}
		return newBinnedGroups(m, e.src.NumRows(), q.XBins), nil
	}
	if len(q.X) == 0 {
		return groups{}, fmt.Errorf("engine: query needs X or XMeasure")
	}
	if len(q.X) == 1 {
		col, err := e.src.ColumnByName(q.X[0])
		if err != nil {
			return groups{}, err
		}
		return newSingleGroups(col, e.src.NumRows()), nil
	}
	cols := make([]colstore.ColumnReader, len(q.X))
	for i, name := range q.X {
		col, err := e.src.ColumnByName(name)
		if err != nil {
			return groups{}, err
		}
		cols[i] = col
	}
	return newMultiGroups(cols, e.src.NumRows())
}

// Groups returns q's histogram width |V_X| without building a plan or reading a block.
func (e *Engine) Groups(q Query) (int, error) {
	grp, err := e.planGroups(q)
	if err != nil {
		return 0, err
	}
	return grp.n, nil
}

// Groups returns the number of histogram groups the plan produces.
func (p *Plan) Groups() int { return p.grp.n }

// NumCandidates returns the number of candidates in the plan's domain.
func (p *Plan) NumCandidates() int { return len(p.cand.blocks) }

// ResolveTarget materializes the target histogram under this plan.
// Candidate targets are resolved with an exact parallel scan restricted
// (via the bitmap index) to the blocks containing the candidate; workers
// ≤ 0 selects GOMAXPROCS.
func (p *Plan) ResolveTarget(t Target, workers int) (*histogram.Histogram, error) {
	h, id, err := MaterializeTarget(t, p.grp.n, len(p.cand.blocks), p.cand.label)
	if err != nil || h != nil {
		return h, err
	}
	return p.scanCandidate(id, workers, nil)
}

// MaterializeTarget resolves a target specification for a query with
// groups histogram groups and candidates candidates, in one precedence:
// explicit Counts, then Uniform — both returned as a histogram, with id
// -1 — then the Candidate whose label (read through labelOf) matches,
// returned as its id with a nil histogram. The caller computes that
// candidate's exact histogram: ResolveTarget and a sampling run with a
// candidate scan, an exact pass (single node or coordinated) from its
// own per-candidate counts.
func MaterializeTarget(t Target, groups, candidates int, labelOf func(int) string) (*histogram.Histogram, int, error) {
	switch {
	case len(t.Counts) > 0:
		if len(t.Counts) != groups {
			return nil, -1, fmt.Errorf("engine: target has %d groups, query produces %d", len(t.Counts), groups)
		}
		return histogram.FromCounts(t.Counts), -1, nil
	case t.Uniform:
		counts := make([]float64, groups)
		for i := range counts {
			counts[i] = 1
		}
		return histogram.FromCounts(counts), -1, nil
	case t.Candidate != "":
		for id := 0; id < candidates; id++ {
			if labelOf(id) == t.Candidate {
				return nil, id, nil
			}
		}
		return nil, -1, fmt.Errorf("engine: target candidate %q not found", t.Candidate)
	default:
		return nil, -1, fmt.Errorf("engine: empty target specification")
	}
}
