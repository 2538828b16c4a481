package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// scanExec is the exact-pass executor: the full-data baseline the paper
// compares against (§5.2), generalized to N workers that claim disjoint
// block chunks from a shared cursor into private accumulators merged at a
// barrier. Scan and ParallelScan run it at Options.Workers (default
// GOMAXPROCS); with workers == 1 it is the paper's sequential baseline.
// Because every worker counts a disjoint set of rows and counts are
// integer-valued, the merged histograms — and therefore distances, pruning
// decisions, and the top-k — are identical to the sequential pass
// regardless of worker count.
type scanExec struct {
	plan    *Plan
	src     colstore.Reader
	workers int
	// guard, when non-nil, is consulted once per block so a canceled or
	// budget-capped scan unwinds promptly with partial accumulators.
	guard *runGuard
	// skip, when non-nil, marks blocks whose statistics prove no
	// qualifying row; sweep consumes them virtually (rows charged to
	// guards and totals, nothing read).
	skip *bitmap.Bitset
	// rec, when non-nil, is the observed run's record. A single-worker
	// sweep emits a "scan" frame to it every scanProgressInterval blocks
	// (parallel workers race, so their interleaving — and thus any frame
	// sequence — would be nondeterministic); on a traced run the merge
	// barrier cuts one span per worker under its run span (the blocks it
	// swept, wall time, and IOStats). Nil for unobserved runs and a
	// separate target pass — workers then take no timestamps and pay
	// nothing.
	rec *runRecord
}

// scanProgressInterval is how many blocks a sequential scan reads between
// progress emissions.
const scanProgressInterval = 256

// scanChunk is the most blocks a worker claims at a time (about 0.2 ms
// at the default block size): a worker the OS deschedules delays the
// barrier by at most its current chunk, not by the rest of a fixed share.
const scanChunk = 256

// newScanExec binds a scan executor to a plan. Workers ≤ 0 selects
// GOMAXPROCS; the count is further capped at the number of blocks.
func (p *Plan) newScanExec(workers int) *scanExec {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, p.engine.src.NumBlocks()))
	return &scanExec{plan: p, src: p.engine.src, workers: workers}
}

// scanPartial is one worker's private accumulators.
type scanPartial struct {
	hists        []*histogram.Histogram // nil for candidates with no counted row
	io           IOStats
	rows         int64
	err          error     // guard termination, if the worker was interrupted
	began, ended time.Time // the worker's wall clock, taken only on traced runs
}

// blockCursor hands out the blocks of one run in order, in chunks, to
// whichever worker asks next.
type blockCursor struct {
	next         atomic.Int64
	blocks, size int
}

// newBlockCursor sizes chunks at scanChunk, smaller on tables too small
// to give every worker several chunks.
func newBlockCursor(blocks, workers int) *blockCursor {
	return &blockCursor{blocks: blocks, size: max(1, min(scanChunk, blocks/(8*workers)))}
}

// claim returns the next chunk [lo, hi), or ok == false when every block
// has been handed out.
func (c *blockCursor) claim() (lo, hi int, ok bool) {
	lo = int(c.next.Add(int64(c.size))) - c.size
	if lo >= c.blocks {
		return 0, 0, false
	}
	return lo, min(lo+c.size, c.blocks), true
}

// sweep is one worker: it scans the chunks it claims from cur until none
// is left, restricted to `only` when non-nil, accumulating every
// candidate. With one worker it claims every chunk, in block order.
//
// Stats-pruned blocks (s.skip) are consumed virtually: their rows are
// charged to the guard and to part.rows — so budget decisions, σ
// selectivities, and partial results are byte-identical to a pruning-off
// sweep — but the block is never read and TuplesRead stays untouched.
// Progress emission paces on BlocksRead+BlocksPruned so frame positions
// and counts match the pruning-off sweep exactly.
func (s *scanExec) sweep(cur *blockCursor, only *bitmap.Bitset) *scanPartial {
	part := &scanPartial{}
	traced := s.rec != nil && s.rec.span != nil
	if traced {
		part.began = time.Now()
	}
	kern := s.plan.newKernel(false) // per-worker, folded on return
chunks:
	for loBlock, hiBlock, ok := cur.claim(); ok; loBlock, hiBlock, ok = cur.claim() {
		for b := loBlock; b < hiBlock; b++ {
			if part.err = s.guard.stop(); part.err != nil {
				break chunks
			}
			if only != nil && !only.Get(b) {
				continue
			}
			if s.skip != nil && s.skip.Get(b) {
				n := s.plan.blockRows(b)
				part.io.BlocksSkipped++
				part.io.BlocksPruned++
				part.rows += n
				s.guard.addRows(n)
			} else {
				lo, hi := s.src.BlockSpan(b)
				n := int64(hi - lo)
				part.io.BlocksRead++
				s.guard.addRows(n)
				kern.block(lo, hi)
				part.io.TuplesRead += n
				part.rows += n
			}
			if s.rec != nil && s.workers == 1 && (part.io.BlocksRead+part.io.BlocksPruned)%scanProgressInterval == 0 {
				s.rec.emit(Progress{Phase: "scan", IO: part.io})
			}
		}
	}
	part.hists = kern.fold()
	if traced {
		part.ended = time.Now()
	}
	return part
}

// run fans the scan out over s.workers workers sharing one block cursor
// and merges the per-worker accumulators at the barrier into a complete
// histogram set.
// When the run's guard fires, every worker unwinds at its next block
// boundary and run returns the merged partial accumulators with the
// termination error — all goroutines are always joined before returning.
func (s *scanExec) run(only *bitmap.Bitset) ([]*histogram.Histogram, IOStats, int64, error) {
	cur := newBlockCursor(s.src.NumBlocks(), s.workers)
	parts := make([]*scanPartial, s.workers)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w] = s.sweep(cur, only)
		}(w)
	}
	wg.Wait()

	hists := make([]*histogram.Histogram, len(s.plan.cand.blocks))
	for i := range hists {
		hists[i] = histogram.New(s.plan.grp.n)
	}
	var io IOStats
	var rows int64
	var stopErr error
	for w, part := range parts {
		io.Add(part.io)
		rows += part.rows
		if part.err != nil && stopErr == nil {
			stopErr = part.err
		}
		if !part.began.IsZero() {
			sp := s.rec.span.ChildAt(fmt.Sprintf("worker%d", w), part.began)
			sp.SetAttr("blocks", part.io.BlocksRead+part.io.BlocksPruned)
			sp.SetIO(trace.IO(part.io))
			sp.EndAt(part.ended)
		}
		for i, h := range part.hists {
			if h == nil {
				continue
			}
			if err := hists[i].AddHistogram(h); err != nil {
				panic(err) // group counts match by construction
			}
		}
	}
	return hists, io, rows, stopErr
}

// scanCandidate computes the exact histogram of one candidate,
// restricted (via the bitmap index) to the blocks that contain it: the
// target pass of ResolveTarget and of a sampling run, which needs its
// target before stage 1 (an exact run takes the target from its own pass
// instead; see runScan). It accumulates every candidate through the
// kernels, as every exact pass does, and returns the one asked for. An
// interrupted pass returns only the guard's termination error: a
// truncated target is not best-effort-usable, it is wrong.
func (p *Plan) scanCandidate(id, workers int, guard *runGuard) (*histogram.Histogram, error) {
	ex := p.newScanExec(workers)
	ex.guard = guard
	hists, _, _, err := ex.run(p.cand.blocks[id])
	if err != nil {
		return nil, err
	}
	return hists[id], nil
}

// runScan answers the plan exactly: one full pass computing every
// candidate histogram, exact σ pruning, exact top-k. A nil target is
// candidate targetID's histogram from the same pass. An interrupted pass
// (guard fired) instead returns a best-effort Result — Partial set, no σ
// pruning (selectivities from a truncated pass are biased), candidates
// ranked by their partial histograms, against a candidate target's
// histogram at the same stop point — alongside the termination error; a
// pass stopped before it reached the candidate target returns no Result.
func (p *Plan) runScan(target *histogram.Histogram, targetID int, opts Options, workers int, guard *runGuard, rec *runRecord) (*Result, error) {
	ex := p.newScanExec(workers)
	ex.guard, ex.rec, ex.skip = guard, rec, p.skipAll
	if rec != nil {
		rec.span.SetAttr("workers", ex.workers)
	}
	hists, io, totalRows, stopErr := ex.run(nil)
	res := RankExact(target, targetID, hists, p.grp.n, totalRows, stopErr == nil, opts.Params, p.cand.label)
	if res == nil {
		return nil, stopErr
	}
	res.IO = io
	return res, stopErr
}

// RankExact answers a query from an exact pass's per-candidate
// histograms over totalRows charged rows, replacing each nil entry (no
// counted row) with an empty histogram of groups groups: the one
// tail of the single-node pass and of the cluster coordinator's fold of
// summed shard histograms, which is what makes the coordinated answer
// byte-identical to the single-node one. A nil target is candidate
// targetID's histogram from the same pass; when an incomplete pass never
// reached it, RankExact returns nil and the caller reports why. σ prunes
// only a complete pass (selectivities from a truncated pass are biased)
// and, as in HistSim's stage 1, not at all when σ would prune every
// candidate; a partial ranking drops never-reached candidates; k comes
// from Params.K or the KRange rule. The Result sets Exact, Partial, TopK,
// Pruned and their Stats counts; the caller adds IO, Duration and
// GroupLabels.
func RankExact(target *histogram.Histogram, targetID int, hists []*histogram.Histogram, groups int,
	totalRows int64, complete bool, params core.Params, labelOf func(int) string) *Result {
	for i, h := range hists {
		if h == nil {
			hists[i] = histogram.New(groups)
		}
	}
	if target == nil {
		if target = hists[targetID]; !complete && target.Total() == 0 {
			return nil
		}
	}
	res := &Result{Exact: complete, Partial: !complete}
	common := func(h *histogram.Histogram) bool { return h.Total()/float64(totalRows) >= params.Sigma }
	prune := complete && params.Sigma > 0 && slices.ContainsFunc(hists, common)
	dist := make([]float64, len(hists))
	var ranked []int
	for i := range hists {
		if prune && !common(hists[i]) {
			res.Pruned = append(res.Pruned, labelOf(i))
			continue
		}
		if !complete && hists[i].Total() == 0 {
			// Never-reached candidate: its empty histogram normalizes
			// to uniform, which would rank it as a perfect match for
			// uniform-like targets. A truncated pass ranks only what it
			// saw.
			continue
		}
		dist[i] = params.Metric.Distance(hists[i], target)
		ranked = append(ranked, i)
	}
	if ranked == nil && !complete { // TopK reads nil ids as every candidate
		return res
	}
	k := params.K
	if params.KRange.KMax > 0 {
		k = params.KRange.KMax
		if k > len(ranked) && params.KRange.KMin <= len(ranked) {
			k = len(ranked)
		}
	}
	for _, rk := range histogram.TopK(dist, ranked, k) {
		res.TopK = append(res.TopK, Match{
			ID:        rk.ID,
			Label:     labelOf(rk.ID),
			Distance:  rk.Distance,
			Histogram: hists[rk.ID].Clone(),
		})
	}
	res.Stats.ChosenK = len(res.TopK)
	res.Stats.PrunedCandidates = len(res.Pruned)
	return res
}
