package engine

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/core"
	"fastmatch/internal/histogram"
)

// Distributed shard segments
//
// A cluster coordinator (internal/cluster) executes one logical sampling
// run whose block space is the concatenation of N row-range shards, each
// served by an independent fastmatchd process. The coordinator drives
// core.RunObserved itself; its sampler chains the global cursor walk
// through per-shard *segments* — each segment is one stateless call into
// this file, carrying the walk's committed state in (consumed bitmap,
// cursor, deficits, residual budgets) and returning the updated state
// plus a mergeable core.Batch partial.
//
// Byte-identity with a single node over the concatenated data rests on
// three alignment facts, all enforced elsewhere and assumed here:
//
//   - chunk commits happen at fixed block-index positions (sampler.go),
//     so when every shard's block count is a multiple of ChunkBlocks,
//     a segment handoff commits exactly where the single-node walk
//     would;
//   - FastMatch lookahead tiles are anchored to block indices
//     (sampler.go), so shard boundaries that are also tile boundaries
//     preserve the marking schedule;
//   - candidate and group IDs are dictionary-driven, so shards built
//     with shared full dictionaries (datagen -shards) expose identical
//     candidate domains, group counts, and labels.
//
// Segments are idempotent: re-running a segment from the same request
// state returns the same response, so a coordinator may retry a failed
// call safely.

// SegmentKind selects what a shard segment executes.
type SegmentKind string

const (
	// SegStage1 reads sequentially until the residual stage-1 target is
	// met (no AnyActive).
	SegStage1 SegmentKind = "stage1"
	// SegRound runs one shard-local slice of a stage-2/stage-3 deficit
	// round under the executor's block policy.
	SegRound SegmentKind = "round"
	// SegScan runs the exact-pass executor over the whole shard.
	SegScan SegmentKind = "scan"
	// SegTarget resolves one candidate's exact local histogram.
	SegTarget SegmentKind = "target"
)

// ChunkBlocks returns the chunk-commit granularity (in blocks) the
// sampling planner uses for the given block size. Shard files whose
// block counts are multiples of this value hand off segments exactly at
// commit boundaries; datagen -shards aligns shard sizes with it.
func ChunkBlocks(blockSize int) int {
	if blockSize <= 0 {
		return samplerChunkMinBlocks
	}
	c := samplerChunkRows / blockSize
	if c < samplerChunkMinBlocks {
		c = samplerChunkMinBlocks
	}
	if c > samplerChunkMaxBlocks {
		c = samplerChunkMaxBlocks
	}
	return c
}

// ShardMeta describes a plan's shape on one shard. The coordinator
// cross-checks metas (candidate/group domains must agree across shards)
// and uses the per-candidate Absent flags as the initial local-exhaustion
// state for exactness inference.
type ShardMeta struct {
	Rows       int    `json:"rows"`
	Blocks     int    `json:"blocks"`
	BlockSize  int    `json:"block_size"`
	Candidates int    `json:"candidates"`
	Groups     int    `json:"groups"`
	ChunkBlk   int    `json:"chunk_blocks"`
	Generation uint64 `json:"generation,omitempty"`
	// Labels / GroupLabels name candidates and groups by id; the
	// coordinator requires them to be identical on every shard.
	Labels      []string `json:"labels"`
	GroupLabels []string `json:"group_labels"`
	// Absent flags candidates provably absent from this shard (their
	// block bitsets are empty): locally exhausted before any sampling.
	Absent []bool `json:"absent,omitempty"`
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
		ChunkBlk:    ChunkBlocks(p.engine.src.BlockSize()),
		GroupLabels: groupLabels(p.grp),
	}
	m.Labels = make([]string, n)
	m.Absent = make([]bool, n)
	for i := 0; i < n; i++ {
		m.Labels[i] = p.cand.labelOf(i)
		if cb := p.cand.candidateBlocks(i); cb != nil && cb.Count() == 0 {
			m.Absent[i] = true
		}
	}
	return m
}

// ShardSegment is one stateless shard-local slice of a global run. The
// coordinator owns all cross-segment state and threads it through here.
type ShardSegment struct {
	Kind SegmentKind `json:"kind"`

	// Run knobs. They must match the single-node options the coordinated
	// run is equivalent to; Workers is throughput-only as everywhere else.
	Executor           Executor `json:"executor"`
	Lookahead          int      `json:"lookahead,omitempty"`
	Workers            int      `json:"workers,omitempty"`
	DisableBlockSkip   bool     `json:"disable_block_skip,omitempty"`
	DisableScanKernels bool     `json:"disable_scan_kernels,omitempty"`

	// Sampling walk state (SegStage1 / SegRound).
	Cursor int `json:"cursor"`
	// Consumed is the shard-local consumed bitmap as raw words,
	// little-endian bit order (bitmap.Bitset words).
	Consumed      []uint64 `json:"consumed,omitempty"`
	ConsumedCount int      `json:"consumed_count"`
	// Visits bounds this pass's remaining cursor visits globally;
	// GlobalBlocks and OthersConsumed feed the global all-consumed test.
	Visits         int `json:"visits"`
	GlobalBlocks   int `json:"global_blocks"`
	OthersConsumed int `json:"others_consumed"`

	// Stage1Need is the residual stage-1 drawn target (SegStage1).
	Stage1Need int `json:"stage1_need,omitempty"`
	// Deficits are the residual per-candidate sample demands (SegRound).
	Deficits map[int]int64 `json:"deficits,omitempty"`

	// Residual termination state: RowBudget ≤ 0 means unlimited (the
	// coordinator never forwards an exhausted budget — it synthesizes the
	// stop itself), Deadline zero means none.
	RowBudget int64     `json:"row_budget,omitempty"`
	Deadline  time.Time `json:"deadline,omitempty"`

	// TargetCandidate is the candidate id to resolve (SegTarget).
	TargetCandidate int `json:"target_candidate,omitempty"`
}

// Segment stop reasons, the wire form of the guard's typed errors.
const (
	SegStopBudget   = "budget"
	SegStopDeadline = "deadline"
	SegStopCanceled = "canceled"
)

// ShardSegmentResult carries a segment's mergeable partial plus the
// updated walk state the coordinator threads into the next segment.
type ShardSegmentResult struct {
	// Batch is the core.EncodeBatch partial: fresh samples for sampling
	// segments; for SegScan/SegTarget the local exact histograms with
	// Drawn holding the rows charged to the budget guard.
	Batch []byte  `json:"batch"`
	IO    IOStats `json:"io"`
	// Visited counts cursor visits consumed (sampling segments).
	Visited       int      `json:"visited"`
	Cursor        int      `json:"cursor"`
	Consumed      []uint64 `json:"consumed,omitempty"`
	ConsumedCount int      `json:"consumed_count"`
	// Deficits are the demands still unmet after this segment (SegRound).
	Deficits map[int]int64 `json:"deficits,omitempty"`
	// LocalExhausted flags candidates with no unconsumed local blocks
	// left (every sampling segment); the coordinator ANDs the freshest
	// flags across shards for exactness inference.
	LocalExhausted []bool `json:"local_exhausted,omitempty"`
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
	case SegStopDeadline:
		return CanceledStopError(context.DeadlineExceeded)
	default:
		return CanceledStopError(context.Canceled)
	}
}

// InvalidSegmentError reports a ShardSegment whose walk state no
// coordinator walk over this shard could have produced, naming the
// offending field. Segments arrive from the wire, so RunShardSegment
// checks them before running anything: a lying count or an unknown
// executor would otherwise yield a silently wrong answer, not a failure.
type InvalidSegmentError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *InvalidSegmentError) Error() string {
	return fmt.Sprintf("engine: invalid segment %s: %s", e.Field, e.Reason)
}

// RunShardSegment executes one shard segment against this plan. It is
// stateless with respect to the plan (safe for concurrent segments) and
// idempotent with respect to the request.
func (p *Plan) RunShardSegment(ctx context.Context, req *ShardSegment) (*ShardSegmentResult, error) {
	switch req.Kind {
	case SegStage1, SegRound:
		return p.runSampleSegment(ctx, req)
	case SegScan:
		return p.runScanSegment(ctx, req)
	case SegTarget:
		return p.runTargetSegment(ctx, req)
	default:
		return nil, fmt.Errorf("engine: unknown segment kind %q", req.Kind)
	}
}

// segOptions lifts a segment's run knobs and residual termination state
// into the Options the local constructors take.
func segOptions(req *ShardSegment) Options {
	return Options{
		Executor:           req.Executor,
		Lookahead:          req.Lookahead,
		Workers:            req.Workers,
		DisableBlockSkip:   req.DisableBlockSkip,
		DisableScanKernels: req.DisableScanKernels,
		Deadline:           req.Deadline,
		RowBudget:          req.RowBudget,
	}
}

// validateWalk checks a sampling segment's walk state against the shard's
// geometry and returns the rebuilt consumed set.
func (p *Plan) validateWalk(req *ShardSegment) (*bitmap.Bitset, error) {
	bad := func(field, format string, args ...any) (*bitmap.Bitset, error) {
		return nil, &InvalidSegmentError{Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	nb := p.engine.src.NumBlocks()
	switch req.Executor {
	case ScanMatch, SyncMatch, FastMatch:
	default:
		return bad("executor", "%d is not a sampling executor", int(req.Executor))
	}
	if req.Cursor < 0 || req.Cursor > nb {
		return bad("cursor", "%d outside [0, %d]", req.Cursor, nb)
	}
	if words := (nb + 63) / 64; len(req.Consumed) > words {
		return bad("consumed", "%d words for a shard of %d", len(req.Consumed), words)
	}
	consumed := bitsetFromWords(nb, req.Consumed)
	if n := consumed.Count(); req.ConsumedCount != n {
		return bad("consumed_count", "%d but consumed marks %d of %d blocks", req.ConsumedCount, n, nb)
	}
	if req.Visits < 0 {
		return bad("visits", "%d is negative", req.Visits)
	}
	if req.GlobalBlocks < nb {
		return bad("global_blocks", "%d is below this shard's %d blocks", req.GlobalBlocks, nb)
	}
	if req.OthersConsumed < 0 || req.OthersConsumed > req.GlobalBlocks-nb {
		return bad("others_consumed", "%d outside [0, %d]", req.OthersConsumed, req.GlobalBlocks-nb)
	}
	return consumed, nil
}

func (p *Plan) runSampleSegment(ctx context.Context, req *ShardSegment) (*ShardSegmentResult, error) {
	consumed, err := p.validateWalk(req)
	if err != nil {
		return nil, err
	}
	opts := segOptions(req)
	bs := p.newSampler(opts, 0, newRunGuard(ctx, opts))
	bs.cursor = req.Cursor // verbatim: a segment may start parked at NumBlocks
	bs.seg = true
	bs.segVisits = req.Visits
	bs.segGlobal = req.GlobalBlocks
	bs.segOthers = req.OthersConsumed
	bs.consumed = consumed
	bs.consCnt = req.ConsumedCount

	batch := p.newBatch()
	stage1Need := -1
	if req.Kind == SegStage1 {
		stage1Need = req.Stage1Need
	} else {
		bs.unmet = 0
		for id, d := range req.Deficits {
			if id < 0 || id >= bs.cand.numCandidates() {
				return nil, &InvalidSegmentError{Field: "deficits", Reason: fmt.Sprintf("unknown candidate %d", id)}
			}
			if d > 0 {
				bs.deficit[id] = d
				bs.unmet++
			}
		}
		bs.refreshActive()
	}
	visited, stopErr := bs.runRound(batch, stage1Need)

	res := &ShardSegmentResult{
		Batch:         core.EncodeBatch(batch),
		IO:            bs.Stats(),
		Visited:       visited,
		Cursor:        bs.cursor,
		Consumed:      bitsetWords(bs.consumed),
		ConsumedCount: bs.consCnt,
		Stopped:       stopReason(stopErr),
	}
	if req.Kind == SegRound {
		res.Deficits = make(map[int]int64)
		for id, d := range bs.deficit {
			if d > 0 {
				res.Deficits[id] = d
			}
		}
	}
	// Local-exhaustion flags for every sampling segment (stage 1 consumes
	// blocks too): the coordinator ANDs the freshest flags per shard, and
	// a shard's flags only change when one of its own segments runs.
	n := bs.cand.numCandidates()
	res.LocalExhausted = make([]bool, n)
	for i := 0; i < n; i++ {
		res.LocalExhausted[i] = bs.candidateExhausted(i)
	}
	return res, nil
}

func (p *Plan) runScanSegment(ctx context.Context, req *ShardSegment) (*ShardSegmentResult, error) {
	ex := p.newScanExec(req.Workers)
	ex.guard = newRunGuard(ctx, segOptions(req))
	if !req.DisableBlockSkip {
		ex.skip = p.skipAll
	}
	ex.kernels = !req.DisableScanKernels
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
	h, rows, stopErr := p.scanCandidate(id, req.Workers, newRunGuard(ctx, segOptions(req)))
	batch := p.newBatch()
	batch.Drawn, batch.Counts[id], batch.Hists[id] = rows, int64(h.Total()), h
	return &ShardSegmentResult{
		Batch:   core.EncodeBatch(batch),
		Stopped: stopReason(stopErr),
	}, nil
}

// scanBatch packs accumulated histograms (nil = no counted row) into the
// mergeable Batch envelope: Drawn carries the guard-charged rows (pruned
// blocks included; 0 from the sampler, whose planner charges Drawn
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

// bitsetWords snapshots a bitset's backing words for the wire.
func bitsetWords(b *bitmap.Bitset) []uint64 {
	out := make([]uint64, b.NumWords())
	for w := range out {
		out[w] = b.Word(w)
	}
	return out
}

// bitsetFromWords rebuilds an n-bit bitset from wire words; bits beyond
// n are dropped.
func bitsetFromWords(n int, words []uint64) *bitmap.Bitset {
	bs := bitmap.NewBitset(n)
	for w, word := range words {
		for word != 0 {
			j := bits.TrailingZeros64(word)
			if i := w*64 + j; i < n {
				bs.Set(i)
			}
			word &^= 1 << uint(j)
		}
	}
	return bs
}
