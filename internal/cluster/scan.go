package cluster

import (
	"context"
	"time"

	"fastmatch/internal/core"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// runScan answers with the exact executors by scatter-gather: each shard
// scans its qualifying blocks, the coordinator folds the local exact
// histograms with Batch.Merge (integer sums — order-independent and
// value-exact), then ranks the global accumulation through the same
// engine.RankExact the single-node pass uses. Un-budgeted runs fan out
// concurrently (bounded by fanoutWindow); budgeted or deadlined runs
// chain shards sequentially with the residual budget so the stop lands
// on the same global block a single-node pass would stop at.
func (st *runState) runScan(ctx context.Context, target *histogram.Histogram, began time.Time, runSpan *trace.Span) (*Result, error) {
	params := st.opts.Params
	if err := params.Validate(); err != nil {
		return nil, err
	}
	workers := 1
	if st.opts.Executor == engine.ParallelScan {
		workers = st.opts.Workers
	}
	mkReq := func() *engine.ShardSegment {
		return &engine.ShardSegment{
			Kind:               engine.SegScan,
			Executor:           st.opts.Executor,
			Workers:            workers,
			DisableBlockSkip:   st.opts.DisableBlockSkip,
			DisableScanKernels: st.opts.DisableScanKernels,
			Deadline:           st.deadline,
		}
	}
	gb := st.newBatch()
	var io engine.IOStats
	var stopErr error
	fold := func(sr *shardRun, req *engine.ShardSegment, res *engine.ShardSegmentResult, err error) error {
		var part *core.Batch
		if err == nil {
			part, err = core.DecodeBatch(res.Batch)
		}
		sr.segments++
		if err != nil {
			if stop := st.segmentFailed(sr, err); stop != nil {
				stopErr = stop
			} else {
				shardSpan(runSpan, sr, req, nil, true)
			}
			return nil
		}
		if err := gb.Merge(part); err != nil {
			return err
		}
		st.charged += part.Drawn
		sr.io.Add(res.IO)
		io.Add(res.IO)
		shardSpan(runSpan, sr, req, res, true)
		if st.opts.OnProgress != nil {
			st.opts.OnProgress(engine.Progress{Phase: "scan", IO: io, Elapsed: time.Since(began)})
		}
		if res.Stopped != "" {
			stopErr = res.StopError(st.budget, st.charged)
		}
		return nil
	}
	if st.sequential() {
		for _, sr := range st.walk {
			if sr.dead {
				continue
			}
			if stopErr = st.stopCheck(); stopErr != nil {
				break
			}
			req := mkReq()
			req.RowBudget = st.residualBudget()
			res, err := sr.shard.Segment(ctx, req)
			if err := fold(sr, req, res, err); err != nil {
				return nil, err
			}
			if stopErr != nil {
				break
			}
		}
	} else {
		results, err := st.fanout(ctx, mkReq)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			if err := fold(r.sr, mkReq(), r.res, r.err); err != nil {
				return nil, err
			}
		}
	}
	// Degraded scans are honest partials: the fold holds only data
	// actually read, and an incomplete pass never σ-prunes.
	complete := stopErr == nil && !st.degraded
	hists := gb.Hists
	for i, h := range hists {
		if h == nil {
			hists[i] = histogram.New(st.groups)
		}
	}
	res := &engine.Result{Exact: complete, Partial: !complete, IO: io}
	res.TopK, res.Pruned = engine.RankExact(target, params, hists, gb.Drawn, complete, st.labelOf)
	res.Stats.ChosenK = len(res.TopK)
	res.Stats.PrunedCandidates = len(res.Pruned)
	res.Duration = time.Since(began)
	res.GroupLabels = st.groupLabels
	return st.finish(res), stopErr
}
