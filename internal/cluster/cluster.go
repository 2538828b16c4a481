// Package cluster implements the distributed scatter-gather layer: a
// coordinator that owns a sharded table (row-range shards, each served
// by an independent fastmatchd process) and answers every query on it
// exactly, whatever executor was requested. Each shard scans its own
// qualifying blocks (engine.RunShardSegment) and returns its local exact
// histograms; the coordinator folds them with core.Batch.Merge (integer
// sums: order-independent and value-exact), sums IOStats with
// IOStats.Add, and ranks the global fold through the same
// engine.RankExact the single-node exact pass uses. A K-shard answer is
// therefore byte-identical to a single-node ParallelScan over the
// concatenated data, and an exact answer meets every (ε, δ) promise a
// sampling executor could have made. The equivalence suite enforces
// this.
//
// Robustness is degraded-but-honest: a shard that dies mid-run
// contributes nothing, the answer is marked Partial with the missing
// shard named, and totals only ever count data actually read — never an
// error, never a wrong total.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"fastmatch/internal/core"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// Shard is one member of a coordinated table: it answers plan metadata
// and stateless segment calls for the coordinator's current query. The
// HTTP implementation is Client.Bind; tests use in-process shards.
type Shard interface {
	Name() string
	Meta(ctx context.Context) (*engine.ShardMeta, error)
	Segment(ctx context.Context, seg *engine.ShardSegment) (*engine.ShardSegmentResult, error)
}

// ShardStatus reports one shard's health after a coordinated run.
type ShardStatus struct {
	Name    string `json:"name"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
	// Segments counts segment calls issued to this shard during the run.
	Segments int64 `json:"segments"`
	Blocks   int   `json:"blocks,omitempty"`
	Rows     int   `json:"rows,omitempty"`
}

// Result is a coordinated answer: the engine result plus per-shard
// status. Degraded runs carry Partial results with every missing shard
// named.
type Result struct {
	Result *engine.Result
	Shards []ShardStatus
	// Missing names the shards that did not contribute (dead at connect
	// or mid-run). Non-empty iff Degraded.
	Missing  []string
	Degraded bool
}

// Coordinator owns an ordered shard set; shard order is the row-range
// order (shard 0's rows first). It is stateless across runs and safe for
// concurrent use.
type Coordinator struct {
	shards []Shard
}

// New builds a coordinator over the given shards, in row-range order.
func New(shards ...Shard) *Coordinator {
	return &Coordinator{shards: shards}
}

// Run answers a query across the shard set by exact scatter-gather,
// whatever opts.Executor names, with the same contract as
// Plan.RunContext: typed interruption errors alongside best-effort
// partial results, progress through opts.OnProgress, tracing through
// opts.Trace (one child span per shard segment).
func (c *Coordinator) Run(ctx context.Context, t engine.Target, opts engine.Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	st, err := c.connect(ctx, opts)
	if err != nil {
		return nil, err
	}
	if err := st.stopCheck(); err != nil {
		return nil, err
	}
	rsp := opts.Trace.Start("resolve_target")
	target, err := st.resolveTarget(ctx, t)
	rsp.End()
	if err != nil {
		return nil, err
	}
	return st.run(ctx, target)
}

// shardRun is one shard's per-run state, owned by the coordinator.
type shardRun struct {
	shard    Shard
	meta     *engine.ShardMeta
	dead     bool
	errMsg   string
	segments int64
}

// runState is the per-run coordinator state: validated metas, the
// global budget accounting, and degraded-mode bookkeeping. The run's
// deadline is its context's.
type runState struct {
	ctx  context.Context
	opts engine.Options

	shards []*shardRun // all configured shards, in row-range order
	walk   []*shardRun // live-at-connect shards

	nCand       int
	groups      int
	labels      []string
	groupLabels []string

	charged int64 // rows charged against the budget so far
	budget  int64

	degraded bool
}

func (c *Coordinator) connect(ctx context.Context, opts engine.Options) (*runState, error) {
	if len(c.shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	st := &runState{
		ctx:    ctx,
		opts:   opts,
		budget: opts.RowBudget,
		shards: make([]*shardRun, len(c.shards)),
	}
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		sr := &shardRun{shard: sh}
		st.shards[i] = sr
		wg.Add(1)
		go func() {
			defer wg.Done()
			meta, err := sh.Meta(ctx)
			if err != nil {
				sr.dead = true
				sr.errMsg = err.Error()
				return
			}
			sr.meta = meta
		}()
	}
	wg.Wait()

	var ref *engine.ShardMeta
	for _, sr := range st.shards {
		if sr.dead {
			st.degraded = true
			continue
		}
		m := sr.meta
		if ref == nil {
			ref = m
		} else if err := metaMatch(ref, m); err != nil {
			return nil, fmt.Errorf("cluster: shard %q: %w", sr.shard.Name(), err)
		}
		st.walk = append(st.walk, sr)
	}
	if ref == nil {
		return nil, fmt.Errorf("cluster: all %d shards unreachable", len(c.shards))
	}
	st.nCand = ref.Candidates
	st.groups = ref.Groups
	st.labels = ref.Labels
	st.groupLabels = ref.GroupLabels
	return st, nil
}

// metaMatch validates that two shards expose the same plan domain: the
// merge algebra is only sound over identical candidate and group spaces
// (dictionary-driven IDs — datagen -shards shares full dictionaries so
// this holds by construction).
func metaMatch(a, b *engine.ShardMeta) error {
	switch {
	case a.BlockSize != b.BlockSize:
		return fmt.Errorf("block size %d differs from %d", b.BlockSize, a.BlockSize)
	case a.Candidates != b.Candidates:
		return fmt.Errorf("candidate domain %d differs from %d", b.Candidates, a.Candidates)
	case a.Groups != b.Groups:
		return fmt.Errorf("group count %d differs from %d", b.Groups, a.Groups)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return fmt.Errorf("candidate %d is %q, expected %q (shards must share dictionaries)", i, b.Labels[i], a.Labels[i])
		}
	}
	for i := range a.GroupLabels {
		if a.GroupLabels[i] != b.GroupLabels[i] {
			return fmt.Errorf("group %d is %q, expected %q (shards must share dictionaries)", i, b.GroupLabels[i], a.GroupLabels[i])
		}
	}
	return nil
}

func (st *runState) labelOf(i int) string { return st.labels[i] }

// newBatch allocates an empty global batch over the candidate domain.
func (st *runState) newBatch() *core.Batch {
	return &core.Batch{Counts: make([]int64, st.nCand), Hists: make([]*histogram.Histogram, st.nCand)}
}

// stopCheck evaluates the run's stop conditions between segments in the
// single-node guard's order (context, then budget), so a coordinated
// stop lands exactly where the single-node guard's would.
func (st *runState) stopCheck() error {
	if st.ctx != nil {
		if err := st.ctx.Err(); err != nil {
			return engine.CanceledStopError(err)
		}
	}
	if st.budget > 0 && st.charged >= st.budget {
		return engine.BudgetStopError(st.budget, st.charged)
	}
	return nil
}

// residualBudget is the row budget left for the next segment (0 =
// unlimited; an exhausted budget never reaches a shard — stopCheck
// fires first).
func (st *runState) residualBudget() int64 {
	if st.budget <= 0 {
		return 0
	}
	return st.budget - st.charged
}

// segmentFailed classifies a failed segment call. Once the run's own
// context is done the failure is the caller's cancellation (or the run's
// deadline) cutting the call short, not shard loss: it returns the typed
// stop the single-node guard would have and leaves the shard's health
// alone. Otherwise the shard is marked dead and the run degrades (nil).
func (st *runState) segmentFailed(sr *shardRun, err error) error {
	if cerr := st.ctx.Err(); cerr != nil {
		return engine.CanceledStopError(cerr)
	}
	sr.dead = true
	sr.errMsg = err.Error()
	st.degraded = true
	return nil
}

// resolveTarget resolves the query target across the shard set:
// explicit and uniform targets resolve locally; candidate targets by an
// exact scatter-gather scan of the candidate's blocks. Target I/O is
// excluded from the run's IOStats (the single-node contract) but its
// rows are charged against the budget, exactly as the shared guard
// charges them intra-node.
func (st *runState) resolveTarget(ctx context.Context, t engine.Target) (*histogram.Histogram, error) {
	switch {
	case len(t.Counts) > 0:
		if len(t.Counts) != st.groups {
			return nil, fmt.Errorf("engine: target has %d groups, query produces %d", len(t.Counts), st.groups)
		}
		return histogram.FromCounts(t.Counts), nil
	case t.Uniform:
		counts := make([]float64, st.groups)
		for i := range counts {
			counts[i] = 1
		}
		return histogram.FromCounts(counts), nil
	case t.Candidate != "":
		id := -1
		for i, l := range st.labels {
			if l == t.Candidate {
				id = i
				break
			}
		}
		if id < 0 {
			return nil, fmt.Errorf("engine: target candidate %q not found", t.Candidate)
		}
		return st.resolveCandidateTarget(ctx, id)
	default:
		return nil, fmt.Errorf("engine: empty target specification")
	}
}

// resolveCandidateTarget sums the candidate's exact local histograms. A
// shard failure here is an error, not degradation: a target missing a
// shard's rows would silently change the question being asked (the
// single-node analogue — an interrupted target scan — errors too).
func (st *runState) resolveCandidateTarget(ctx context.Context, id int) (*histogram.Histogram, error) {
	h := histogram.New(st.groups)
	mkReq := func() *engine.ShardSegment {
		return &engine.ShardSegment{
			Kind:            engine.SegTarget,
			Workers:         st.opts.Workers,
			TargetCandidate: id,
		}
	}
	err := st.each(ctx, mkReq, func(sr *shardRun, res *engine.ShardSegmentResult, err error) error {
		var part *core.Batch
		if err == nil {
			part, err = core.DecodeBatch(res.Batch)
		}
		if err != nil {
			return fmt.Errorf("cluster: target resolution on shard %q: %w", sr.shard.Name(), err)
		}
		st.charged += part.Drawn
		sr.segments++
		if res.Stopped != "" {
			return res.StopError(st.budget, st.charged)
		}
		if ph := part.Hists[id]; ph != nil {
			if err := h.AddHistogram(ph); err != nil {
				return fmt.Errorf("cluster: target resolution on shard %q: %w", sr.shard.Name(), err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// finish attaches per-shard statuses to the engine result.
func (st *runState) finish(res *engine.Result) *Result {
	out := &Result{Result: res, Degraded: st.degraded}
	for _, sr := range st.shards {
		s := ShardStatus{
			Name:     sr.shard.Name(),
			Healthy:  !sr.dead,
			Error:    sr.errMsg,
			Segments: sr.segments,
		}
		if sr.meta != nil {
			s.Blocks = sr.meta.Blocks
			s.Rows = sr.meta.Rows
		}
		out.Shards = append(out.Shards, s)
		if sr.dead {
			out.Missing = append(out.Missing, sr.shard.Name())
		}
	}
	return out
}

// fanoutWindow bounds the coordinator's concurrent fan-out: shard
// responses stream through a channel of this capacity, so at most this
// many undecoded partials are ever buffered regardless of shard count.
const fanoutWindow = 4

// each sends one segment to every live shard and hands each response to
// fold on the calling goroutine, in shard order, returning the first
// error the stop check or fold reports. Un-budgeted runs fan out
// concurrently, their responses streaming through a channel of
// fanoutWindow capacity — memory stays bounded by the window, not by
// shard count — which is sound because folds are integer-sum merges.
// Budgeted runs chain the shards sequentially with the residual budget
// instead: their stops are charged in row order, so concurrent shards
// would race the stop point.
func (st *runState) each(ctx context.Context, mkReq func() *engine.ShardSegment,
	fold func(*shardRun, *engine.ShardSegmentResult, error) error) error {
	if st.budget > 0 {
		for _, sr := range st.walk {
			if sr.dead {
				continue
			}
			if err := st.stopCheck(); err != nil {
				return err
			}
			req := mkReq()
			req.RowBudget = st.residualBudget()
			res, err := sr.shard.Segment(ctx, req)
			if err := fold(sr, res, err); err != nil {
				return err
			}
		}
		return nil
	}
	type response struct {
		sr  *shardRun
		res *engine.ShardSegmentResult
		err error
	}
	var live []*shardRun
	for _, sr := range st.walk {
		if !sr.dead {
			live = append(live, sr)
		}
	}
	ch := make(chan response, fanoutWindow)
	for _, sr := range live {
		go func(sr *shardRun) {
			res, err := sr.shard.Segment(ctx, mkReq())
			ch <- response{sr, res, err}
		}(sr)
	}
	bySR := make(map[*shardRun]response, len(live))
	for range live {
		r := <-ch
		bySR[r.sr] = r
	}
	var first error
	for _, sr := range live {
		r := bySR[sr]
		if err := fold(sr, r.res, r.err); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shardSpan records a scan segment's trace child, carrying its IO so the
// span tree sums to the run's total.
func shardSpan(runSpan *trace.Span, sr *shardRun, res *engine.ShardSegmentResult) {
	if runSpan == nil {
		return
	}
	sp := runSpan.Child("shard:" + sr.shard.Name())
	sp.SetAttr("kind", string(engine.SegScan))
	if res != nil {
		sp.SetIO(trace.IO{
			BlocksRead:    res.IO.BlocksRead,
			BlocksSkipped: res.IO.BlocksSkipped,
			BlocksPruned:  res.IO.BlocksPruned,
			TuplesRead:    res.IO.TuplesRead,
			KernelBlocks:  res.IO.KernelBlocks,
			Wraps:         res.IO.Wraps,
		})
	} else {
		sp.SetAttr("error", sr.errMsg)
	}
	sp.End()
}
