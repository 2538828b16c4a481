package engine

import (
	"fmt"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// Plan is a resolved query: the candidate and group mappers bound to the
// engine's table and indexes. Planning resolves columns, builds (or fetches
// cached) bitmap indexes, and compiles predicate matchers once; the
// resulting Plan is immutable and safe for concurrent use, so callers
// issuing the same query shape repeatedly — or from many goroutines —
// should Prepare once and reuse the Plan across runs.
type Plan struct {
	engine *Engine
	query  Query
	cand   candidateMapper
	multi  *predicateCandidates // non-nil iff candidates may overlap
	grp    groupMapper
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
	// concurrency-safe; Options.DisableBlockSkip gates their use per run.
	skipAll *bitmap.Bitset
	skipGrp *bitmap.Bitset
	// shape is the plan's vectorizable form; nil when only the scalar row
	// loop can accumulate it (see kernelShape).
	shape *kernelShape
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

// Prepare resolves a query into a reusable Plan. Engine.Run and
// Engine.RunContext are one-shot wrappers around Prepare; prepare
// explicitly to amortize planning across repeated runs.
func (e *Engine) Prepare(q Query) (*Plan, error) { return e.PrepareTraced(q, nil) }

// PrepareTraced is Prepare recording the planning phases — group and
// candidate resolution (including bitmap-index builds on cold columns)
// and skip-mask construction — as spans under a "plan" root in tr. A nil
// tr makes it identical to Prepare.
func (e *Engine) PrepareTraced(q Query, tr *trace.Trace) (*Plan, error) {
	if q.Measure != "" {
		return nil, fmt.Errorf("engine: SUM queries run over a MeasureBiasedView table; build one with MeasureBiasedView and query it with COUNT semantics")
	}
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
	p := &Plan{engine: e, query: q, cand: cand, grp: grp, blockSize: e.src.BlockSize(), rows: e.src.NumRows()}
	if pc, ok := cand.(*predicateCandidates); ok {
		p.multi = pc
	}
	p.shape = p.kernelShape()
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
// match there). Both prunes are sound by construction — a skipped block
// provably contributes to no histogram — which the equivalence suite
// verifies by re-reading pruned blocks.
func (p *Plan) buildSkipMasks() {
	nb := p.engine.src.NumBlocks()
	if nb == 0 {
		return
	}
	var grpMask *bitmap.Bitset
	if bg, ok := p.grp.(binnedGroups); ok {
		if stats := blockStatsOf(p.engine.src); stats != nil {
			edges := bg.binner.Edges()
			if len(edges) >= 2 {
				name := bg.m.MeasureName()
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
	if p.multi != nil {
		union := bitmap.NewBitset(nb)
		for _, bs := range p.multi.blocks {
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

// planCandidates resolves the candidate mapper: predicate candidates when
// CandidatePreds is set, otherwise the distinct values of the Z column
// backed by its bitmap index.
func (e *Engine) planCandidates(q Query) (candidateMapper, error) {
	if len(q.CandidatePreds) > 0 {
		return e.newPredicateCandidates(q.CandidatePreds)
	}
	if q.Z == "" {
		return nil, fmt.Errorf("engine: query needs Z or CandidatePreds")
	}
	col, err := e.src.ColumnByName(q.Z)
	if err != nil {
		return nil, err
	}
	idx, err := e.Index(q.Z)
	if err != nil {
		return nil, err
	}
	return newColumnCandidates(col, e.src.NumRows(), idx, q.KnownCandidates)
}

// planGroups resolves the group mapper: binned measure groups, a single
// categorical column, or the cross product of several.
func (e *Engine) planGroups(q Query) (groupMapper, error) {
	if q.XMeasure != "" {
		if q.XBins == nil {
			return nil, fmt.Errorf("engine: XMeasure %q needs XBins", q.XMeasure)
		}
		m, err := e.src.MeasureByName(q.XMeasure)
		if err != nil {
			return nil, err
		}
		return newBinnedGroups(m, e.src.NumRows(), q.XBins), nil
	}
	if len(q.X) == 0 {
		return nil, fmt.Errorf("engine: query needs X or XMeasure")
	}
	if len(q.X) == 1 {
		col, err := e.src.ColumnByName(q.X[0])
		if err != nil {
			return nil, err
		}
		return newSingleGroups(col, e.src.NumRows()), nil
	}
	cols := make([]colstore.ColumnReader, len(q.X))
	for i, name := range q.X {
		col, err := e.src.ColumnByName(name)
		if err != nil {
			return nil, err
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
	return grp.groups(), nil
}

// Groups returns the number of histogram groups the plan produces.
func (p *Plan) Groups() int { return p.grp.groups() }

// NumCandidates returns the number of candidates in the plan's domain.
func (p *Plan) NumCandidates() int { return p.cand.numCandidates() }

// ResolveTarget materializes the target histogram under this plan.
// Candidate targets are resolved with an exact parallel scan restricted
// (via the bitmap index) to the blocks containing the candidate; workers
// ≤ 0 selects GOMAXPROCS.
func (p *Plan) ResolveTarget(t Target, workers int) (*histogram.Histogram, error) {
	return p.resolveTarget(t, workers, nil)
}

// resolveTarget is ResolveTarget under an optional run guard: a canceled
// context aborts the candidate-resolution scan with the typed
// termination error (a truncated target would be wrong, not partial).
func (p *Plan) resolveTarget(t Target, workers int, guard *runGuard) (*histogram.Histogram, error) {
	switch {
	case len(t.Counts) > 0:
		if len(t.Counts) != p.grp.groups() {
			return nil, fmt.Errorf("engine: target has %d groups, query produces %d", len(t.Counts), p.grp.groups())
		}
		return histogram.FromCounts(t.Counts), nil
	case t.Uniform:
		counts := make([]float64, p.grp.groups())
		for i := range counts {
			counts[i] = 1
		}
		return histogram.FromCounts(counts), nil
	case t.Candidate != "":
		id := -1
		for i := 0; i < p.cand.numCandidates(); i++ {
			if p.cand.labelOf(i) == t.Candidate {
				id = i
				break
			}
		}
		if id < 0 {
			return nil, fmt.Errorf("engine: target candidate %q not found", t.Candidate)
		}
		h, _, err := p.scanCandidate(id, workers, guard)
		if err != nil {
			return nil, err
		}
		return h, nil
	default:
		return nil, fmt.Errorf("engine: empty target specification")
	}
}
