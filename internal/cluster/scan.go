package cluster

import (
	"context"
	"fmt"
	"time"

	"fastmatch/internal/core"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
)

// run answers the query against a resolved target by exact
// scatter-gather: each live shard scans its qualifying blocks, the
// coordinator folds the local exact histograms with Batch.Merge, then
// ranks the global accumulation through the same engine.RankExact the
// single-node pass uses. A budgeted run chains the shards with the
// residual budget (see each), so the stop lands on the same block a
// single-node Scan would stop at.
func (st *runState) run(ctx context.Context, target *histogram.Histogram) (*Result, error) {
	opts := st.opts
	if target.Groups() != st.groups {
		return nil, fmt.Errorf("engine: target has %d groups, query produces %d", target.Groups(), st.groups)
	}
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	began := time.Now()
	runSpan := opts.Trace.StartAt("run", began)
	runSpan.SetAttr("executor", engine.ParallelScan.String())
	runSpan.SetAttr("shards", len(st.shards))
	defer runSpan.End()

	// Workers racing one shared row budget would stop at a timing-
	// dependent block; a budgeted scan reads each shard on one worker so
	// the stop lands where the single-node Scan's does.
	workers := opts.Workers
	if st.budget > 0 {
		workers = 1
	}
	mkReq := func() *engine.ShardSegment {
		return &engine.ShardSegment{
			Kind:     engine.SegScan,
			Executor: engine.ParallelScan,
			Workers:  workers,
		}
	}
	gb := st.newBatch()
	var io engine.IOStats
	var mergeErr error
	stopErr := st.each(ctx, mkReq, func(sr *shardRun, res *engine.ShardSegmentResult, err error) error {
		var part *core.Batch
		if err == nil {
			part, err = core.DecodeBatch(res.Batch)
		}
		sr.segments++
		if err != nil {
			if stop := st.segmentFailed(sr, err); stop != nil {
				return stop
			}
			shardSpan(runSpan, sr, nil)
			return nil
		}
		if err := gb.Merge(part); err != nil {
			mergeErr = err
			return err
		}
		st.charged += part.Drawn
		io.Add(res.IO)
		shardSpan(runSpan, sr, res)
		if opts.OnProgress != nil {
			opts.OnProgress(engine.Progress{Phase: "scan", IO: io, Elapsed: time.Since(began)})
		}
		return res.StopError(st.budget, st.charged)
	})
	if mergeErr != nil {
		return nil, mergeErr
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
	res.TopK, res.Pruned = engine.RankExact(target, opts.Params, hists, gb.Drawn, complete, st.labelOf)
	res.Stats.ChosenK = len(res.TopK)
	res.Stats.PrunedCandidates = len(res.Pruned)
	res.Duration = time.Since(began)
	res.GroupLabels = st.groupLabels
	return st.finish(res), stopErr
}
