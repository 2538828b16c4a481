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
// segment call into this file — an exact scan of its blocks, or one
// candidate's exact histogram for target resolution — and returns a
// mergeable core.Batch partial. The coordinator folds the partials with
// core.Batch.Merge (integer sums), so the fold equals a single-node
// exact pass over the concatenated data. Candidate and group IDs are
// dictionary-driven, so shards built with shared full dictionaries
// (datagen -shards) expose identical candidate domains, group counts and
// labels.
//
// Segments are idempotent: re-running a segment returns the same
// response, so a coordinator may retry a failed call safely.

// SegmentKind selects what a shard segment executes.
type SegmentKind string

const (
	// SegScan runs the exact-pass executor over the whole shard.
	SegScan SegmentKind = "scan"
	// SegTarget resolves one candidate's exact local histogram.
	SegTarget SegmentKind = "target"
)

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
	n := p.cand.numCandidates()
	m := ShardMeta{
		Rows:        p.engine.src.NumRows(),
		Blocks:      p.engine.src.NumBlocks(),
		BlockSize:   p.engine.src.BlockSize(),
		Candidates:  n,
		Groups:      p.grp.groups(),
		GroupLabels: groupLabels(p.grp),
	}
	m.Labels = make([]string, n)
	for i := 0; i < n; i++ {
		m.Labels[i] = p.cand.labelOf(i)
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

	// TargetCandidate is the candidate id to resolve (SegTarget).
	TargetCandidate int `json:"target_candidate,omitempty"`
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
// idempotent with respect to the request.
func (p *Plan) RunShardSegment(ctx context.Context, req *ShardSegment) (*ShardSegmentResult, error) {
	switch req.Kind {
	case SegScan:
		return p.runScanSegment(ctx, req)
	case SegTarget:
		return p.runTargetSegment(ctx, req)
	default:
		return nil, fmt.Errorf("engine: unknown segment kind %q", req.Kind)
	}
}

func (p *Plan) runScanSegment(ctx context.Context, req *ShardSegment) (*ShardSegmentResult, error) {
	ex := p.newScanExec(req.Workers)
	ex.guard = newRunGuard(ctx, req.RowBudget)
	ex.skip = p.skipAll
	ex.kernels = true
	hists, io, rows, stopErr := ex.run(nil, -1)
	return &ShardSegmentResult{
		Batch:   core.EncodeBatch(scanBatch(hists, rows)),
		IO:      io,
		Stopped: stopReason(stopErr),
	}, nil
}

func (p *Plan) runTargetSegment(ctx context.Context, req *ShardSegment) (*ShardSegmentResult, error) {
	id := req.TargetCandidate
	if id < 0 || id >= p.cand.numCandidates() {
		return nil, fmt.Errorf("engine: segment target candidate %d out of range", id)
	}
	h, rows, stopErr := p.scanCandidate(id, req.Workers, newRunGuard(ctx, req.RowBudget))
	batch := p.newBatch()
	batch.Drawn, batch.Counts[id], batch.Hists[id] = rows, int64(h.Total()), h
	return &ShardSegmentResult{
		Batch:   core.EncodeBatch(batch),
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
