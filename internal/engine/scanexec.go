package engine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// scanExec is the exact-pass executor: the full-data baseline the paper
// compares against (§5.2), generalized to N workers sweeping disjoint
// contiguous block ranges with private accumulators that are merged at a
// barrier. With workers == 1 it degenerates to the sequential Scan
// baseline; ParallelScan runs it at Options.Workers (default GOMAXPROCS).
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
	// emit, when non-nil, receives an I/O snapshot every
	// scanProgressInterval blocks. It is only set for single-worker
	// scans: parallel workers race, so their interleaving (and thus any
	// frame sequence) would be nondeterministic.
	emit func(io IOStats)
	// skip, when non-nil, marks blocks whose statistics prove no
	// qualifying row; scanRange consumes them virtually (rows charged to
	// guards and totals, nothing read).
	skip *bitmap.Bitset
	// kernels lets scanRange's accumulator run the vectorized kernels
	// (Options.DisableScanKernels clears it).
	kernels bool
	// span, when non-nil, is the traced run's parent span: the merge
	// barrier records one child span per worker (its block range, wall
	// time, and IOStats). Nil for untraced runs and target resolution —
	// workers then take no timestamps and pay nothing.
	span *trace.Span
}

// scanPartialTimes is the per-worker wall-clock pair recorded only for
// traced runs.
type scanPartialTimes struct {
	began time.Time
	ended time.Time
}

// scanProgressInterval is how many blocks a sequential scan reads between
// progress emissions.
const scanProgressInterval = 256

// newScanExec binds a scan executor to a plan. Workers ≤ 0 selects
// GOMAXPROCS; the count is further capped at the number of blocks.
func (p *Plan) newScanExec(workers int) *scanExec {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if nb := p.engine.src.NumBlocks(); workers > nb {
		workers = nb
	}
	if workers < 1 {
		workers = 1
	}
	return &scanExec{plan: p, src: p.engine.src, workers: workers}
}

// scanPartial is one worker's private accumulators.
type scanPartial struct {
	hists []*histogram.Histogram // nil for candidates with no counted row
	io    IOStats
	rows  int64
	err   error             // guard termination, if the worker was interrupted
	times *scanPartialTimes // non-nil only for traced runs
}

// partition splits [0, NumBlocks) into s.workers contiguous ranges.
func (s *scanExec) partition() [][2]int {
	nb := s.src.NumBlocks()
	ranges := make([][2]int, 0, s.workers)
	chunk := (nb + s.workers - 1) / s.workers
	for lo := 0; lo < nb; lo += chunk {
		hi := lo + chunk
		if hi > nb {
			hi = nb
		}
		ranges = append(ranges, [2]int{lo, hi})
	}
	return ranges
}

// scanRange sweeps blocks [loBlock, hiBlock), restricted to `only` when
// non-nil, recording every row whose candidate passes keep (keep < 0 keeps
// all candidates).
//
// Stats-pruned blocks (s.skip) are consumed virtually: their rows are
// charged to the guard and to part.rows — so budget decisions, σ
// selectivities, and partial results are byte-identical to a pruning-off
// sweep — but the block is never read and TuplesRead stays untouched.
// Progress emission paces on BlocksRead+BlocksPruned so frame positions
// and counts match the pruning-off sweep exactly.
func (s *scanExec) scanRange(loBlock, hiBlock int, only *bitmap.Bitset, keep int) *scanPartial {
	part := &scanPartial{}
	if s.span != nil {
		part.times = &scanPartialTimes{began: time.Now()}
	}
	kern := s.plan.newKernel(s.kernels, keep, false) // per-worker, folded on return
	for b := loBlock; b < hiBlock; b++ {
		if part.err = s.guard.stop(); part.err != nil {
			break
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
			if kern.vectorized() {
				part.io.KernelBlocks++
			}
		}
		if s.emit != nil && (part.io.BlocksRead+part.io.BlocksPruned)%scanProgressInterval == 0 {
			s.emit(part.io)
		}
	}
	part.hists = kern.fold()
	if part.times != nil {
		part.times.ended = time.Now()
	}
	return part
}

// run fans the scan out over the partitioned block ranges and merges the
// per-worker accumulators at the barrier into a complete histogram set.
// When the run's guard fires, every worker unwinds at its next block
// boundary and run returns the merged partial accumulators with the
// termination error — all goroutines are always joined before returning.
func (s *scanExec) run(only *bitmap.Bitset, keep int) ([]*histogram.Histogram, IOStats, int64, error) {
	ranges := s.partition()
	parts := make([]*scanPartial, len(ranges))
	var wg sync.WaitGroup
	for w, r := range ranges {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = s.scanRange(lo, hi, only, keep)
		}(w, r[0], r[1])
	}
	wg.Wait()

	n := s.plan.cand.numCandidates()
	hists := make([]*histogram.Histogram, n)
	for i := range hists {
		hists[i] = histogram.New(s.plan.grp.groups())
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
		if s.span != nil && part.times != nil {
			sp := s.span.ChildAt(fmt.Sprintf("worker%d", w), part.times.began)
			sp.SetAttr("blocks", [2]int{ranges[w][0], ranges[w][1]})
			sp.SetIO(trace.IO(part.io))
			sp.EndAt(part.times.ended)
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
// restricted (via the bitmap index) to the blocks that contain it, and
// the rows it charged to the guard. The target pass for single-node
// resolution and shard target segments alike. An interrupted pass returns
// the guard's termination error beside the truncated histogram: callers
// must not use it — a truncated target is not best-effort-usable, it is
// wrong.
func (p *Plan) scanCandidate(id, workers int, guard *runGuard) (*histogram.Histogram, int64, error) {
	if p.query.Filter != nil {
		// A Filter closure written against the pre-planner API may be
		// stateful; only the explicit ParallelScan executor opts into
		// concurrent Filter calls, so filtered targets resolve
		// sequentially.
		workers = 1
	}
	ex := p.newScanExec(workers)
	ex.guard = guard
	hists, _, rows, err := ex.run(p.cand.candidateBlocks(id), id)
	return hists[id], rows, err
}

// runScan answers the plan exactly: one full pass computing every
// candidate histogram, exact σ pruning, exact top-k. An interrupted pass
// (guard fired) instead returns a best-effort Result — Partial set, no σ
// pruning (selectivities from a truncated pass are biased), candidates
// ranked by their partial histograms — alongside the termination error.
func (p *Plan) runScan(target *histogram.Histogram, opts Options, workers int, guard *runGuard, emit func(io IOStats), span *trace.Span) (*Result, error) {
	params := opts.Params
	if err := params.Validate(); err != nil {
		return nil, err
	}
	ex := p.newScanExec(workers)
	ex.guard = guard
	ex.span = span
	if !opts.DisableBlockSkip {
		ex.skip = p.skipAll
	}
	ex.kernels = !opts.DisableScanKernels
	if ex.workers == 1 {
		ex.emit = emit
	}
	hists, io, totalRows, stopErr := ex.run(nil, -1)
	res := &Result{Exact: stopErr == nil, Partial: stopErr != nil, IO: io}
	res.TopK, res.Pruned = RankExact(target, params, hists, totalRows, stopErr == nil, p.cand.labelOf)
	res.Stats.ChosenK = len(res.TopK)
	res.Stats.PrunedCandidates = len(res.Pruned)
	return res, stopErr
}

// rankExact ranks fully-accumulated per-candidate histograms the way the
// exact pass does: σ pruning only on a complete pass (selectivities from
// a truncated pass are biased), never-reached candidates dropped from a
// partial ranking, k from Params.K or the KRange rule. Shared between
// runScan and the cluster coordinator's scatter-gather Scan path, which
// ranks globally summed shard histograms — keeping it shared is what
// makes the coordinated top-k byte-identical to the single-node one.
func RankExact(target *histogram.Histogram, params core.Params, hists []*histogram.Histogram,
	totalRows int64, complete bool, labelOf func(int) string) (topK []Match, pruned []string) {
	dist := make([]float64, len(hists))
	var keep []int
	for i := range hists {
		if complete && params.Sigma > 0 {
			if sel := hists[i].Total() / float64(totalRows); sel < params.Sigma {
				pruned = append(pruned, labelOf(i))
				continue
			}
		}
		if !complete && hists[i].Total() == 0 {
			// Never-reached candidate: its empty histogram normalizes
			// to uniform, which would rank it as a perfect match for
			// uniform-like targets. A truncated pass ranks only what it
			// saw.
			continue
		}
		dist[i] = params.Metric.Distance(hists[i], target)
		keep = append(keep, i)
	}
	k := params.K
	if params.KRange.KMax > 0 {
		k = params.KRange.KMax
		if k > len(keep) && params.KRange.KMin <= len(keep) {
			k = len(keep)
		}
	}
	for _, rk := range histogram.TopK(dist, keep, k) {
		topK = append(topK, Match{
			ID:        rk.ID,
			Label:     labelOf(rk.ID),
			Distance:  rk.Distance,
			Histogram: hists[rk.ID].Clone(),
		})
	}
	return topK, pruned
}
