package engine

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// Query is a histogram-generating query template (Definition 1): candidate
// attribute Z, grouping attribute(s) X, and optional extensions.
type Query struct {
	// Z names the candidate attribute; one candidate per distinct value.
	// Ignored when CandidatePreds is set.
	Z string
	// KnownCandidates, when non-empty, restricts the candidate domain to
	// these values and adds a dummy candidate absorbing all others
	// (Appendix A.1.5).
	KnownCandidates []string
	// CandidatePreds defines candidates as boolean predicates over
	// attribute values instead of the Z column (Appendix A.1.2).
	CandidatePreds []bitmap.Predicate
	// X names the grouping attribute(s); more than one gives composite
	// groups over the cross product (Appendix A.1.3). Ignored when
	// XMeasure is set.
	X []string
	// XMeasure and XBins group by binning a continuous measure column
	// (Appendix A.1.4).
	XMeasure string
	XBins    *colstore.Binner
	// Measure, when set, answers SUM(Measure) instead of COUNT(*) via the
	// measure-biased view (Appendix A.1.1); see MeasureBiasedView.
	Measure string
	// Filter, when set, restricts the relation to rows where it returns
	// true (WHERE predicates beyond the candidate equality). The
	// ParallelScan executor invokes it from several goroutines within one
	// run, and sharing an Engine or Plan across goroutines makes
	// concurrent runs each call it too — so unless every run using this
	// query is sequential and non-ParallelScan, the function must be safe
	// for concurrent calls. (Candidate-target resolution itself drops to
	// one worker when a Filter is present.)
	Filter func(row int) bool
}

// Target specifies the visual target q.
type Target struct {
	// Counts is an explicit target histogram (takes precedence).
	Counts []float64
	// Candidate names a candidate value whose exact histogram is the
	// target (e.g. "Greece"); resolved by a full scan of that candidate.
	Candidate string
	// Uniform targets the uniform distribution (used by most Table 3
	// queries: "closest candidate to uniform").
	Uniform bool
}

// Options configures a run.
type Options struct {
	// Params are HistSim's knobs (k, ε, δ, σ, m, metric, …).
	Params core.Params
	// Executor selects Scan / ScanMatch / SyncMatch / FastMatch /
	// ParallelScan, or Auto to pick Scan or FastMatch per run.
	Executor Executor
	// Lookahead is the FastMatch marking window in blocks (default 1024).
	Lookahead int
	// StartBlock is the scan start position; negative picks one at random
	// from Seed (the paper starts each run at a random position).
	StartBlock int
	// Seed drives the random start position when StartBlock is negative.
	// A zero Seed is a fixed seed, not "random": every run with Seed 0
	// (DefaultOptions leaves it zero) derives the same pseudo-random start
	// block. Callers wanting the paper's independent-runs behavior must
	// supply a distinct Seed per run (the CLI tools seed from wall-clock
	// time).
	Seed int64
	// Workers is the goroutine count for the exact path: the ParallelScan
	// executor's block partitions and parallel candidate-target
	// resolution; ≤ 0 selects GOMAXPROCS. The sampling executors run
	// every round on the caller's goroutine and ignore it (see
	// blockSampler), as does the sequential Scan executor, the
	// single-threaded exact baseline by definition; ParallelScan is its
	// parallel counterpart.
	Workers int
	// OnProgress, when non-nil, receives interim run state: sampling
	// executors emit after stage 1, after every HistSim round, and after
	// stage 3; the sequential Scan executor emits every few hundred
	// blocks. Callbacks run synchronously on the run's goroutine(s) —
	// they must be fast and must not block. A nil OnProgress adds no
	// work to the run. OnProgress does not affect the result and is
	// excluded from Options.Fingerprint.
	OnProgress func(Progress)
	// RowBudget, when > 0, caps the tuples a run may read across all
	// stages and workers; exhausting it returns a partial Result with
	// ErrBudgetExhausted. The cap is enforced at block granularity, so a
	// sampling run may read up to one block past it, and ParallelScan up
	// to one block per worker.
	RowBudget int64
	// DisableBlockSkip turns off statistics-based block pruning. Pruning
	// never changes results — skipped blocks are provably free of
	// qualifying rows and their rows are still charged to budgets and
	// totals — so the only observable difference is in IOStats
	// (BlocksPruned, and lower TuplesRead/BlocksRead). The knob exists
	// for measurement and for the equivalence suite.
	DisableBlockSkip bool
	// DisableScanKernels sends every executor's block accumulator through
	// the scalar per-row loop instead of the vectorized grouped-count
	// kernels — one gate (Plan.newKernel). Results are byte-identical
	// either way (IOStats.KernelBlocks is the only delta); the knob exists
	// because the equivalence suite and BenchmarkScanKernels use the
	// scalar loop as their reference.
	DisableScanKernels bool
	// Trace, when non-nil, collects a per-run span tree: a "run" root
	// span with one child per execution phase (stage 1, every stage-2
	// round, stage 3 for the sampling executors; one span per worker for
	// the exact scans), each carrying the IOStats delta attributed to
	// that phase, plus a "resolve_target" span on the RunContext path.
	// Spans are recorded from the hooks OnProgress already uses, at the
	// same discipline: a nil Trace adds no work to the run (no
	// allocations, no branches on the per-row paths), and tracing never
	// affects the result. Trace is excluded from Options.Fingerprint —
	// like OnProgress it is observational — and traced responses must
	// not be served from result caches keyed by fingerprint (the serving
	// layer bypasses its result-cache read for traced requests).
	Trace *trace.Trace
	// Quality, when set, makes sampling-executor runs collect answer-
	// quality telemetry: per-round convergence data on Progress frames
	// and trace spans (gap, slack, churn, per-candidate confidence
	// intervals) and a final Result.Quality report. Like OnProgress and
	// Trace it is purely observational — the answer, sampling schedule,
	// and I/O are unchanged, and it is excluded from Options.Fingerprint.
	// The exact Scan/ParallelScan executors ignore it (their answers are
	// exact; there is no convergence to report).
	Quality bool
}

// Result is a complete query answer.
type Result struct {
	// TopK lists matching candidates closest-first.
	TopK []Match
	// Pruned lists stage-1-pruned candidate labels.
	Pruned []string
	// Exact reports a full-data answer.
	Exact bool
	// Partial reports a best-effort answer from a run cut short by
	// cancellation, a deadline, or a row budget: TopK is ranked by the
	// estimates at the stop point and carries no separation or
	// reconstruction guarantee. Partial results are always accompanied
	// by an ErrCanceled or ErrBudgetExhausted error.
	Partial bool
	// Stats carries HistSim diagnostics (zero-valued for Scan).
	Stats core.RunStats
	// IO carries block-level I/O counters.
	IO IOStats
	// Duration is the wall-clock time of the run (excluding target
	// resolution and index construction).
	Duration time.Duration
	// GroupLabels names the histogram groups, aligned with Histogram
	// vector indices.
	GroupLabels []string
	// Quality is the answer-quality report, present only when
	// Options.Quality was set on a sampling-executor run (nil otherwise).
	// Excluded from JSON: serialized results must stay byte-identical
	// whether or not quality telemetry was requested. Serving layers
	// surface it as a sibling field of the result, never inside it.
	Quality *QualityReport `json:"-"`
}

// Match pairs a candidate with its distance and reconstructed histogram.
type Match struct {
	// ID is the internal candidate id.
	ID int
	// Label is the candidate's attribute value (or predicate string).
	Label string
	// Distance is the estimated distance to the target.
	Distance float64
	// Histogram is the reconstructed (approximate or exact) histogram.
	Histogram *histogram.Histogram
}

// Engine answers top-k histogram matching queries over one storage
// source — any colstore.Reader backend: the heap-resident table, the
// zero-copy mmap snapshot, or future backends (sharded, remote). It
// caches bitmap indexes per column behind singleflight guards, so one
// shared Engine is safe for concurrent use: any number of goroutines may
// Prepare and Run simultaneously (per-run scan state lives in the run,
// not the Engine). Concurrent requests for a missing index block on a
// single build instead of duplicating it.
type Engine struct {
	src     colstore.Reader
	indexes *buildCache[*bitmap.Index]
}

// New creates an engine over a storage source (e.g. a *colstore.Table or
// *colstore.MmapTable).
func New(src colstore.Reader) *Engine {
	return &Engine{
		src:     src,
		indexes: newBuildCache[*bitmap.Index](),
	}
}

// Source returns the underlying storage source.
func (e *Engine) Source() colstore.Reader { return e.src }

// Index returns (building if needed) the bitmap index for a column.
// Indexes are immutable once built and shared across runs.
func (e *Engine) Index(column string) (*bitmap.Index, error) {
	return e.indexes.get(column, func() (*bitmap.Index, error) {
		return bitmap.Build(e.src, column)
	})
}

// Run plans the query and answers it with the configured executor. The
// target is resolved before timing starts, matching the paper's
// measurement of query execution only. Repeated runs of the same query
// shape should Prepare once and call Plan.RunContext instead.
func (e *Engine) Run(q Query, t Target, opts Options) (*Result, error) {
	return e.RunContext(context.Background(), q, t, opts)
}

// RunContext is Run governed by a context: see Plan.RunContext for the
// cancellation and progressive-result contract.
func (e *Engine) RunContext(ctx context.Context, q Query, t Target, opts Options) (*Result, error) {
	p, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.RunContext(ctx, t, opts)
}

// RunContext resolves the target under the plan and answers it with the
// configured executor, governed by a context. Options are validated
// first (see Options.Validate), so a malformed request fails with an
// *InvalidOptionsError before any target resolution or sampling work
// starts. Every executor checks the context (its cancellation and
// deadline) and Options.RowBudget at block-batch granularity and
// unwinds cleanly when it fires: lookahead goroutines are joined, shared
// caches stay consistent, and the engine returns a best-effort partial
// Result (Partial set, ranked by the estimates at the stop point)
// together with a typed error — ErrCanceled for context stops,
// ErrBudgetExhausted for the row budget. A stop during target
// resolution or before any sampling returns a nil Result with the
// error. Interim state streams through Options.OnProgress.
//
// Planning and bitmap-index construction are not canceled mid-build:
// they are shared across runs under singleflight guards, so a canceled
// request never invalidates another request's index.
func (p *Plan) RunContext(ctx context.Context, t Target, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	guard := newRunGuard(ctx, opts.RowBudget)
	if err := guard.stop(); err != nil {
		return nil, err
	}
	// The resolve_target span carries no IO: target resolution is outside
	// the run's IOStats by contract (Result.Duration excludes it too), so
	// attributing its I/O here would break the per-span-sum invariant.
	rsp := opts.Trace.Start("resolve_target")
	target, err := p.resolveTarget(t, opts.Workers, guard)
	rsp.End()
	if err != nil {
		return nil, err
	}
	return p.runWithTarget(target, opts, guard)
}

// RunWithTarget answers the plan against a pre-resolved target histogram.
// The Plan is immutable: concurrent RunWithTarget calls on one Plan are
// safe, each run owning its private sampler state.
func (p *Plan) RunWithTarget(target *histogram.Histogram, opts Options) (*Result, error) {
	return p.RunWithTargetContext(context.Background(), target, opts)
}

// RunWithTargetContext is RunWithTarget governed by a context, with the
// same cancellation contract as Plan.RunContext.
func (p *Plan) RunWithTargetContext(ctx context.Context, target *histogram.Histogram, opts Options) (*Result, error) {
	return p.runWithTarget(target, opts, newRunGuard(ctx, opts.RowBudget))
}

// runWithTarget executes the plan under an optional run guard.
func (p *Plan) runWithTarget(target *histogram.Histogram, opts Options, guard *runGuard) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if target.Groups() != p.grp.groups() {
		return nil, fmt.Errorf("engine: target has %d groups, query produces %d", target.Groups(), p.grp.groups())
	}
	began := time.Now()
	runSpan := opts.Trace.StartAt("run", began)
	var auto *AutoDecision
	opts.Executor, auto = ResolveExecutor(opts, p.rows, p.grp.groups(), false)
	runSpan.SetAttr("executor", opts.Executor.String())
	if auto != nil {
		runSpan.SetAttr("auto_need", auto.Need)
		runSpan.SetAttr("auto_sigma_rows", auto.SigmaRows)
		runSpan.SetAttr("auto_ratio", auto.Ratio)
		runSpan.SetAttr("auto_c", auto.C)
	}
	defer runSpan.End()
	if opts.Executor == Scan || opts.Executor == ParallelScan {
		workers := 1
		if opts.Executor == ParallelScan {
			workers = opts.Workers
		}
		var emit func(io IOStats)
		if opts.OnProgress != nil {
			emit = func(io IOStats) {
				opts.OnProgress(Progress{Phase: "scan", IO: io, Elapsed: time.Since(began)})
			}
		}
		res, err := p.runScan(target, opts, workers, guard, emit, runSpan)
		if res == nil {
			return nil, err
		}
		res.Duration = time.Since(began)
		res.GroupLabels = groupLabels(p.grp)
		return res, err
	}
	if opts.Quality {
		// The knob maps to core's collection flag here (opts is a copy);
		// core.Params.CollectQuality is as fingerprint-neutral as
		// Options.Quality itself.
		opts.Params.CollectQuality = true
	}
	start := opts.StartBlock
	if nb := p.engine.src.NumBlocks(); start < 0 && nb > 0 {
		start = rand.New(rand.NewSource(opts.Seed)).Intn(nb)
	}
	bs := p.newSampler(opts, start, guard)
	obs, obsClose := runObserver(began, opts, bs.Stats, p.cand.labelOf, runSpan)
	defer obsClose()
	coreRes, err := core.RunObserved(bs, target, opts.Params, obs)
	if err != nil && (coreRes == nil || !interrupted(err)) {
		return nil, err
	}
	return samplingResult(coreRes, bs.Stats(), time.Since(began), groupLabels(p.grp), p.cand.labelOf), err
}

// runObserver builds the OnProgress/trace observer for a sampling run:
// each core emission (after stage 1, every stage-2 round, stage 3) cuts
// a phase span carrying the IOStats delta since the previous one and/or
// a Progress frame. Tracing forces an observer on even when OnProgress
// is nil — the cost sits on the per-round path, never the per-row path,
// and results are unchanged (the guarantee OnProgress pins in its
// perturbation test). The returned closer must run after the core run:
// an interrupted run salvages without a final emission, and a few I/O
// counters land after the last one, so it folds the residual into a
// closing "tail" span keeping the tree's IO summing to the run's total.
func runObserver(began time.Time, opts Options, stats func() IOStats, labelOf func(int) string, runSpan *trace.Span) (core.Observer, func()) {
	traced := opts.Trace != nil
	if opts.OnProgress == nil && !traced {
		return nil, func() {}
	}
	phaseStart := began
	var phaseIO IOStats
	obs := func(s core.Snapshot) {
		if traced {
			now := time.Now()
			cur := stats()
			name := s.Phase
			if s.Phase == "stage2" {
				name = fmt.Sprintf("stage2.round%d", s.Round)
			}
			sp := runSpan.ChildAt(name, phaseStart)
			sp.SetAttr("drawn", s.Drawn)
			sp.SetAttr("active_candidates", s.ActiveCandidates)
			if q := s.Quality; q != nil {
				sp.SetAttr("gap", q.Gap)
				sp.SetAttr("slack", q.Slack)
				sp.SetAttr("churn", q.Churn)
			}
			sp.SetIO(trace.IO(ioDelta(cur, phaseIO)))
			sp.EndAt(now)
			phaseStart, phaseIO = now, cur
		}
		if opts.OnProgress == nil {
			return
		}
		pr := Progress{
			Phase:            s.Phase,
			Round:            s.Round,
			ActiveCandidates: s.ActiveCandidates,
			SamplesDrawn:     s.Drawn,
			IO:               stats(),
			Elapsed:          time.Since(began),
		}
		if len(s.TopK) > 0 {
			pr.TopK = make([]ProgressMatch, len(s.TopK))
			for i, rk := range s.TopK {
				pr.TopK[i] = ProgressMatch{ID: rk.ID, Label: labelOf(rk.ID), Distance: rk.Distance}
			}
		}
		if q := s.Quality; q != nil {
			pr.Quality = &ProgressQuality{
				Gap:              q.Gap,
				Slack:            q.Slack,
				Churn:            q.Churn,
				PrunedCandidates: q.PrunedCandidates,
			}
			// Quality entries are aligned with Snapshot.TopK by the
			// core contract.
			for i := range pr.TopK {
				pr.TopK[i].CI = q.TopK[i].CI
			}
		}
		opts.OnProgress(pr)
	}
	closer := func() {}
	if traced {
		closer = func() {
			if resid := ioDelta(stats(), phaseIO); resid != (IOStats{}) {
				sp := runSpan.ChildAt("tail", phaseStart)
				sp.SetIO(trace.IO(resid))
				sp.End()
			}
		}
	}
	return obs, closer
}

// samplingResult converts a core sampling result into an engine Result.
func samplingResult(coreRes *core.Result, io IOStats, duration time.Duration, grpLabels []string, labelOf func(int) string) *Result {
	res := &Result{
		Exact:       coreRes.Exact,
		Partial:     coreRes.Partial,
		Stats:       coreRes.Stats,
		IO:          io,
		Duration:    duration,
		GroupLabels: grpLabels,
		Quality:     qualityReport(coreRes.Quality, labelOf),
	}
	for _, rk := range coreRes.TopK {
		res.TopK = append(res.TopK, Match{
			ID:        rk.ID,
			Label:     labelOf(rk.ID),
			Distance:  rk.Distance,
			Histogram: coreRes.Hists[rk.ID],
		})
	}
	for _, id := range coreRes.Pruned {
		res.Pruned = append(res.Pruned, labelOf(id))
	}
	return res
}

// ioDelta subtracts two monotone IOStats snapshots (cur - prev); phase
// spans carry deltas so the tree sums to the run's total.
func ioDelta(cur, prev IOStats) IOStats {
	return IOStats{
		BlocksRead:    cur.BlocksRead - prev.BlocksRead,
		BlocksSkipped: cur.BlocksSkipped - prev.BlocksSkipped,
		BlocksPruned:  cur.BlocksPruned - prev.BlocksPruned,
		TuplesRead:    cur.TuplesRead - prev.TuplesRead,
		KernelBlocks:  cur.KernelBlocks - prev.KernelBlocks,
		Wraps:         cur.Wraps - prev.Wraps,
	}
}

func groupLabels(grp groupMapper) []string {
	out := make([]string, grp.groups())
	for g := range out {
		out[g] = grp.labelOf(g)
	}
	return out
}
