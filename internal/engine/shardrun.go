package engine

import (
	"context"
	"errors"
	"fmt"

	"fastmatch/internal/core"
	"fastmatch/internal/histogram"
)

// Distributed shard segments
//
// A cluster coordinator (internal/cluster) answers a query over a table
// split into row-range shards, each served by an independent fastmatchd
// process, by exact scatter-gather: every shard runs one stateless
// segment call into this file — an exact scan of its blocks — and
// returns a mergeable core.Batch partial. The coordinator folds the
// partials with core.Batch.Merge (integer sums), so the fold equals a
// single-node exact pass over the concatenated data, and takes a
// candidate target from the fold: it costs no call of its own. Candidate and group IDs are
// dictionary-driven, so shards built with shared full dictionaries
// (datagen -shards) expose identical candidate domains, group counts and
// labels.
//
// Segments are idempotent: re-running a segment returns the same
// response, so a coordinator may retry a failed call safely.

// SegmentKind selects what a shard segment executes.
type SegmentKind string

// SegScan runs the exact-pass executor over the whole shard: the one
// segment kind.
const SegScan SegmentKind = "scan"

// ShardMeta describes a plan's shape on one shard. The coordinator
// cross-checks metas: candidate and group domains must agree across
// shards.
type ShardMeta struct {
	Rows       int    `json:"rows"`
	Blocks     int    `json:"blocks"`
	BlockSize  int    `json:"block_size"`
	Candidates int    `json:"candidates"`
	Groups     int    `json:"groups"`
	Generation uint64 `json:"generation,omitempty"`
	// Labels / GroupLabels name candidates and groups by id; the
	// coordinator requires them to be identical on every shard.
	Labels      []string `json:"labels"`
	GroupLabels []string `json:"group_labels"`
}

// ShardMeta reports the plan's local shape for coordinator validation.
func (p *Plan) ShardMeta() ShardMeta {
	n := len(p.cand.blocks)
	m := ShardMeta{
		Rows:        p.engine.src.NumRows(),
		Blocks:      p.engine.src.NumBlocks(),
		BlockSize:   p.engine.src.BlockSize(),
		Candidates:  n,
		Groups:      p.grp.n,
		GroupLabels: p.grp.labels(),
		Labels:      make([]string, n),
	}
	for i := range m.Labels {
		m.Labels[i] = p.cand.label(i)
	}
	return m
}

// ShardSegment is one stateless shard-local slice of a coordinated run.
type ShardSegment struct {
	Kind SegmentKind `json:"kind"`

	// Run knobs. Executor names the exact executor the coordinated run
	// answers with; Workers is throughput-only as everywhere else.
	Executor Executor `json:"executor"`
	Workers  int      `json:"workers,omitempty"`

	// Residual termination state: RowBudget ≤ 0 means unlimited (the
	// coordinator never forwards an exhausted budget — it synthesizes the
	// stop itself). The segment's deadline is its request context's.
	RowBudget int64 `json:"row_budget,omitempty"`
}

// Segment stop reasons, the wire form of the guard's typed errors.
const (
	SegStopBudget   = "budget"
	SegStopDeadline = "deadline"
	SegStopCanceled = "canceled"
)

// ShardSegmentResult carries a segment's mergeable partial.
type ShardSegmentResult struct {
	// Batch is the core.EncodeBatch partial: the local exact histograms,
	// with Drawn holding the rows charged to the budget guard.
	Batch []byte  `json:"batch"`
	IO    IOStats `json:"io"`
	// Stopped is "" for a completed segment, else a SegStop* reason.
	Stopped string `json:"stopped,omitempty"`
}

// StopError reconstructs the guard error a stop reason stands for, using
// the run's global budget accounting so the error text matches what a
// single-node run would have produced. Returns nil for a completed
// segment.
func (r *ShardSegmentResult) StopError(budget, read int64) error {
	switch r.Stopped {
	case "":
		return nil
	case SegStopBudget:
		return BudgetStopError(budget, read)
	}
	cause := context.Canceled
	if r.Stopped == SegStopDeadline {
		cause = context.DeadlineExceeded
	}
	return CanceledStopError(cause)
}

// RunShardSegment executes one shard segment against this plan. It is
// stateless with respect to the plan (safe for concurrent segments) and
// idempotent with respect to the request. Its errors are requests it
// cannot run: a segment kind other than SegScan, or more than MaxWorkers
// workers, refused before any worker starts.
func (p *Plan) RunShardSegment(ctx context.Context, req *ShardSegment) (*ShardSegmentResult, error) {
	if req.Kind != SegScan {
		return nil, fmt.Errorf("engine: unknown segment kind %q", req.Kind)
	}
	if req.Workers > MaxWorkers {
		return nil, fmt.Errorf("engine: segment asks for %d workers, at most %d", req.Workers, MaxWorkers)
	}
	ex := p.newScanExec(req.Workers)
	ex.guard = newRunGuard(ctx, req.RowBudget)
	ex.skip = p.skipAll
	hists, io, rows, stopErr := ex.run(nil)
	return &ShardSegmentResult{
		Batch:   core.EncodeBatch(scanBatch(hists, rows)),
		IO:      io,
		Stopped: stopReason(stopErr),
	}, nil
}

// scanBatch packs accumulated histograms (nil = no counted row) into the
// mergeable Batch envelope: Drawn carries the guard-charged rows (pruned
// blocks included; 0 from the sampler, whose walk charges Drawn
// itself), Counts the per-candidate histogram totals.
func scanBatch(hists []*histogram.Histogram, rows int64) *core.Batch {
	b := &core.Batch{Drawn: rows, Counts: make([]int64, len(hists)), Hists: hists}
	for i, h := range hists {
		if h != nil {
			b.Counts[i] = int64(h.Total())
		}
	}
	return b
}

func stopReason(err error) string {
	switch {
	case err == nil:
		return ""
	case isBudget(err):
		return SegStopBudget
	case errors.Is(err, context.DeadlineExceeded):
		return SegStopDeadline
	default:
		return SegStopCanceled
	}
}
