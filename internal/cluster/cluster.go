// Package cluster implements the distributed scatter-gather layer: a
// coordinator that owns a sharded table (row-range shards, each served
// by an independent fastmatchd process) and answers queries by folding
// per-shard partials with the exact algebra the intra-node path uses —
// core.Batch.Merge for sampler state and IOStats.Add for accounting.
//
// The coordinator drives core.RunObserved itself, exactly as a
// single-node run does; only the core.Sampler underneath differs: a
// distributed sampler that chains the global block-cursor walk through
// stateless per-shard segments (engine.RunShardSegment). Because chunk
// commits and FastMatch marking tiles are anchored to block indices,
// shard files whose block counts are multiples of engine.ChunkBlocks
// (and, for FastMatch, of the lookahead) hand segments off exactly at
// the positions the single-node walk would have committed — making a
// K-shard answer byte-identical to a single node over the concatenated
// data. The equivalence suite enforces this.
//
// Robustness is degraded-but-honest: a shard that dies mid-run has its
// remaining blocks treated as consumed-with-zero-contribution, the
// answer is marked Partial with the missing shard named, and totals
// only ever count data actually read — never an error, never a wrong
// total.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

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

// Coordinator owns an ordered shard set; shard order defines the global
// block space (shard 0's blocks first). It is stateless across runs and
// safe for concurrent use.
type Coordinator struct {
	shards []Shard
}

// New builds a coordinator over the given shards. Order matters: it is
// the global block order, which must match the row-range partition.
func New(shards ...Shard) *Coordinator {
	return &Coordinator{shards: shards}
}

// Shards returns the configured shard set.
func (c *Coordinator) Shards() []Shard { return c.shards }

// Run answers a query across the shard set with the same contract as
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
	io       engine.IOStats
	// consumed/consCnt mirror the shard's slice of the global consumed
	// set; exh is the last-known per-candidate local exhaustion.
	consumed []uint64
	consCnt  int
	exh      []bool
}

// runState is the per-run coordinator state: validated metas, the
// global budget/deadline accounting (the distributed twin of the
// engine's runGuard), and degraded-mode bookkeeping.
type runState struct {
	ctx  context.Context
	opts engine.Options

	shards []*shardRun // all configured shards, in global block order
	walk   []*shardRun // live-at-connect shards: the global block space

	nCand       int
	groups      int
	labels      []string
	groupLabels []string
	globalNB    int
	totalRows   int64

	charged  int64 // rows charged against the budget so far
	budget   int64
	deadline time.Time

	degraded bool
	began    time.Time
}

func (c *Coordinator) connect(ctx context.Context, opts engine.Options) (*runState, error) {
	if len(c.shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	st := &runState{
		ctx:      ctx,
		opts:     opts,
		budget:   opts.RowBudget,
		deadline: opts.Deadline,
		began:    time.Now(),
		shards:   make([]*shardRun, len(c.shards)),
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
		sr.exh = append([]bool(nil), m.Absent...)
		if sr.exh == nil {
			sr.exh = make([]bool, m.Candidates)
		}
		st.walk = append(st.walk, sr)
		st.globalNB += m.Blocks
		st.totalRows += int64(m.Rows)
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

// stopCheck is the coordinator-side twin of runGuard.stop, evaluated
// between segments in the same order (context, budget, deadline) so a
// coordinated stop lands exactly where the single-node guard's would.
func (st *runState) stopCheck() error {
	if st.ctx != nil {
		if err := st.ctx.Err(); err != nil {
			return engine.CanceledStopError(err)
		}
	}
	if st.budget > 0 && st.charged >= st.budget {
		return engine.BudgetStopError(st.budget, st.charged)
	}
	if !st.deadline.IsZero() && !time.Now().Before(st.deadline) {
		return engine.CanceledStopError(context.DeadlineExceeded)
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

// sequential reports whether segment fan-out must be sequential to
// preserve determinism: budget and deadline stops are charged in block
// order, so concurrent shards would race the stop point.
func (st *runState) sequential() bool {
	return st.budget > 0 || !st.deadline.IsZero()
}

func (st *runState) markDead(sr *shardRun, err error) {
	sr.dead = true
	sr.errMsg = err.Error()
	st.degraded = true
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
	st.markDead(sr, err)
	return nil
}

func interrupted(err error) bool {
	return errors.Is(err, engine.ErrCanceled) || errors.Is(err, engine.ErrBudgetExhausted)
}

// resolveTarget mirrors Plan.resolveTarget across the shard set:
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
	fold := func(sr *shardRun, res *engine.ShardSegmentResult, err error) error {
		if err != nil {
			return fmt.Errorf("cluster: target resolution on shard %q: %w", sr.shard.Name(), err)
		}
		part, err := core.DecodeBatch(res.Batch)
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
	}
	mkReq := func() *engine.ShardSegment {
		return &engine.ShardSegment{
			Kind:            engine.SegTarget,
			Workers:         st.opts.Workers,
			TargetCandidate: id,
			Deadline:        st.deadline,
		}
	}
	if st.sequential() {
		for _, sr := range st.walk {
			if err := st.stopCheck(); err != nil {
				return nil, err
			}
			req := mkReq()
			req.RowBudget = st.residualBudget()
			res, err := sr.shard.Segment(ctx, req)
			if err := fold(sr, res, err); err != nil {
				return nil, err
			}
		}
		return h, nil
	}
	results, err := st.fanout(ctx, mkReq)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if err := fold(r.sr, r.res, r.err); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// run executes the query against a resolved target, mirroring
// Plan.runWithTarget.
func (st *runState) run(ctx context.Context, target *histogram.Histogram) (*Result, error) {
	opts := st.opts
	if target.Groups() != st.groups {
		return nil, fmt.Errorf("engine: target has %d groups, query produces %d", target.Groups(), st.groups)
	}
	began := time.Now()
	runSpan := opts.Trace.StartAt("run", began)
	runSpan.SetAttr("executor", opts.Executor.String())
	runSpan.SetAttr("shards", len(st.shards))
	defer runSpan.End()
	if opts.Executor == engine.Scan || opts.Executor == engine.ParallelScan {
		return st.runScan(ctx, target, began, runSpan)
	}
	if opts.Quality {
		opts.Params.CollectQuality = true
	}
	start := opts.StartBlock
	if start < 0 {
		if st.globalNB > 0 {
			start = rand.New(rand.NewSource(opts.Seed)).Intn(st.globalNB)
		} else {
			start = 0
		}
	} else if st.globalNB > 0 {
		start = ((start % st.globalNB) + st.globalNB) % st.globalNB
	} else {
		start = 0
	}
	ds := newDistSampler(st, ctx, start, runSpan)
	obs, obsClose := engine.RunObserver(began, opts, ds.Stats, st.labelOf, runSpan)
	defer obsClose()
	coreRes, err := core.RunObserved(ds, target, opts.Params, obs)
	if err != nil && (coreRes == nil || !interrupted(err)) {
		return nil, err
	}
	res := engine.SamplingResult(coreRes, ds.Stats(), time.Since(began), st.groupLabels, st.labelOf)
	if st.degraded {
		// Degraded-but-honest: the dead shard's blocks were folded in as
		// consumed-with-zero-contribution, so totals only count data
		// actually read — but no exactness or guarantee can be claimed.
		res.Exact = false
		res.Partial = true
	}
	return st.finish(res), err
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

type fanoutResult struct {
	sr  *shardRun
	res *engine.ShardSegmentResult
	err error
}

// fanout issues one segment per live shard concurrently and returns the
// responses in shard order. Responses stream through a fixed-size
// channel — memory stays bounded by fanoutWindow, not by shard count —
// and folding happens on the caller's goroutine. Only order-independent
// folds (integer-sum merges) may use this; budgeted runs must go
// sequential.
func (st *runState) fanout(ctx context.Context, mkReq func() *engine.ShardSegment) ([]fanoutResult, error) {
	live := st.liveWalk()
	ch := make(chan fanoutResult, fanoutWindow)
	for _, sr := range live {
		go func(sr *shardRun) {
			res, err := sr.shard.Segment(ctx, mkReq())
			ch <- fanoutResult{sr: sr, res: res, err: err}
		}(sr)
	}
	byShard := make(map[*shardRun]fanoutResult, len(live))
	for range live {
		r := <-ch
		byShard[r.sr] = r
	}
	out := make([]fanoutResult, 0, len(live))
	for _, sr := range live {
		out = append(out, byShard[sr])
	}
	return out, nil
}

func (st *runState) liveWalk() []*shardRun {
	out := make([]*shardRun, 0, len(st.walk))
	for _, sr := range st.walk {
		if !sr.dead {
			out = append(out, sr)
		}
	}
	return out
}

// shardSpan records a segment call's trace child. Sampling segments are
// attribute-only (phase spans own the IO deltas); exact-scan segments
// carry their IO so the span tree sums to the run's total.
func shardSpan(runSpan *trace.Span, sr *shardRun, req *engine.ShardSegment, res *engine.ShardSegmentResult, withIO bool) {
	if runSpan == nil {
		return
	}
	sp := runSpan.Child("shard:" + sr.shard.Name())
	sp.SetAttr("kind", string(req.Kind))
	if res != nil {
		sp.SetAttr("visited", res.Visited)
		if withIO {
			sp.SetIO(trace.IO{
				BlocksRead:    res.IO.BlocksRead,
				BlocksSkipped: res.IO.BlocksSkipped,
				BlocksPruned:  res.IO.BlocksPruned,
				TuplesRead:    res.IO.TuplesRead,
				KernelBlocks:  res.IO.KernelBlocks,
				Wraps:         res.IO.Wraps,
			})
		}
	} else {
		sp.SetAttr("error", sr.errMsg)
	}
	sp.End()
}
