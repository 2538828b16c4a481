package cluster

import (
	"context"
	"fmt"
	"time"

	"fastmatch/internal/core"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
)

// run answers the query by exact scatter-gather: each live shard scans
// its qualifying blocks, the coordinator folds the local exact
// histograms with Batch.Merge, then ranks the global accumulation
// through the same engine.RankExact the single-node pass uses, against
// target or, when it is nil, candidate targetID's histogram in the fold.
// A budgeted run chains the shards with the residual budget (see each),
// so the stop lands on the same block a single-node Scan would stop at.
func (st *runState) run(ctx context.Context, target *histogram.Histogram, targetID int) (*Result, error) {
	opts := st.opts
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
	seg := engine.ShardSegment{Kind: engine.SegScan, Executor: engine.ParallelScan, Workers: workers}
	gb := &core.Batch{Counts: make([]int64, st.nCand), Hists: make([]*histogram.Histogram, st.nCand)}
	var io engine.IOStats
	var mergeErr error
	stopErr := st.each(ctx, seg, func(sr *shardRun, res *engine.ShardSegmentResult, err error) error {
		var part *core.Batch
		if err == nil {
			part, err = st.decodePartial(res)
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
	// actually read, and an incomplete pass never σ-prunes. A stopped or
	// degraded fold holds a candidate target over the rows it read, as it
	// holds every candidate; one that read none of the target's rows has
	// nothing to rank against.
	res := engine.RankExact(target, targetID, gb.Hists, st.groups, gb.Drawn, stopErr == nil && !st.degraded, opts.Params, st.labelOf)
	if res == nil {
		if stopErr != nil {
			return nil, stopErr
		}
		return nil, fmt.Errorf("cluster: target candidate %q has no row on the live shards (missing %v)",
			st.labels[targetID], st.missing())
	}
	res.IO = io
	res.Duration = time.Since(began)
	res.GroupLabels = st.groupLabels
	return st.finish(res), stopErr
}
