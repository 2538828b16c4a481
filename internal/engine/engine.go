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
// attribute Z, grouping attribute(s) X, and optional extensions. It counts
// rows; SUM(measure) queries (Appendix A.1.1) run the same template over a
// MeasureBiasedView table.
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
}

// Target specifies the visual target q.
type Target struct {
	// Counts is an explicit target histogram (takes precedence).
	Counts []float64
	// Candidate names a candidate value whose exact histogram is the
	// target (e.g. "Greece"). An exact run takes it from its own pass,
	// which counts every candidate; a sampling run, which needs it before
	// stage 1, resolves it first with a scan of that candidate's blocks.
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
	// executor's block partitions and, for the sampling executors only,
	// the candidate-target scan before stage 1 (an exact run takes its
	// candidate target from its own pass); ≤ 0 selects GOMAXPROCS, and
	// more than MaxWorkers is invalid. The sampling executors run every
	// round on the caller's goroutine (see blockSampler), and the
	// sequential Scan executor, the single-threaded exact baseline by
	// definition, ignores it; ParallelScan is its parallel counterpart.
	Workers int
	// OnProgress, when non-nil, receives interim run state as Progress
	// frames: sampling executors emit after stage 1, after every HistSim
	// round, and after stage 3; the sequential Scan executor emits every
	// few hundred blocks. Callbacks run synchronously, one at a time, on
	// the goroutine doing the run's work — they must be fast and must
	// not block. A run with neither OnProgress nor Trace does no
	// observation work. OnProgress does not affect the result and is
	// excluded from Options.Fingerprint.
	OnProgress func(Progress)
	// RowBudget, when > 0, caps the tuples a run may read across all
	// stages and workers — a sampling run's candidate-target scan
	// included; an exact run reads its candidate target in its one pass,
	// so a budget of the table's rows completes it. Exhausting the budget
	// returns a partial Result with ErrBudgetExhausted. The cap is
	// enforced at block granularity, so a sampling run may read up to one
	// block past it, and ParallelScan up to one block per worker.
	RowBudget int64
	// Trace, when non-nil, collects a per-run span tree: a "run" root
	// span with one child per execution phase (stage 1, every stage-2
	// round, stage 3 for the sampling executors; one span per worker for
	// the exact scans), each carrying the IOStats delta attributed to
	// that phase, plus a "resolve_target" span on the RunContext path
	// (on an exact run it times only the candidate lookup: the target
	// comes from the run's pass).
	// A sampling phase's span and its Progress frame render one stamped
	// emission: the span's attrs are the frame's fields, and its IO is
	// the difference of consecutive frames' IO (a closing "tail" span
	// carries IO read after the last frame). A nil Trace adds no work to
	// the run (no allocations, no branches on the per-row paths), and
	// tracing never affects the result. Trace is excluded from
	// Options.Fingerprint — like OnProgress it is observational — and
	// traced responses must not be served from result caches keyed by
	// fingerprint (the serving layer bypasses its result-cache read for
	// traced requests).
	Trace *trace.Trace
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
	// reconstruction guarantee. An exact run's candidate target is
	// itself the candidate's histogram at that stop point, like every
	// histogram ranked against it. A stopped run's partial comes with an
	// ErrCanceled or ErrBudgetExhausted error; a degraded coordinated
	// answer (internal/cluster) is Partial with a nil error and its
	// missing shards named. The conformance matrix's cluster rows pin
	// both.
	Partial bool
	// Stats carries HistSim diagnostics (zero-valued for Scan).
	Stats core.RunStats
	// IO carries block-level I/O counters.
	IO IOStats
	// Duration is the wall-clock time of the run, excluding index
	// construction and a sampling run's candidate-target scan; an exact
	// run's one pass, which yields its candidate target, is included.
	Duration time.Duration
	// GroupLabels names the histogram groups, aligned with Histogram
	// vector indices.
	GroupLabels []string
	// Quality is the answer-quality report every sampling-executor run
	// returns (nil for the exact Scan and ParallelScan: their answers
	// are exact, with no convergence to report). Excluded from JSON:
	// serving layers surface it as a sibling field of the result, never
	// inside it, so result bytes do not depend on whether a client asked
	// for the report.
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

// Run plans the query and answers it with the configured executor. A
// sampling run resolves its target before timing starts, matching the
// paper's measurement of query execution only; an exact run takes a
// candidate target from its timed pass. Repeated runs of the same query
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

// RunContext resolves the executor and the target under the plan and
// answers it with that executor, governed by a context. Options are
// validated first (see Options.Validate), so a malformed request fails
// with an *InvalidOptionsError before any target resolution or sampling
// work starts. An exact executor (Scan, ParallelScan, or Auto resolved to
// Scan) counts every candidate in its one pass, so a Candidate target is
// only looked up here and taken from that pass; a sampling executor needs
// the target before stage 1 and resolves it with a pass of its own. Every
// executor checks the context (its cancellation and deadline) and
// Options.RowBudget at block-batch granularity and unwinds cleanly when
// it fires: scan workers are joined (sampling starts none), shared caches
// stay consistent, and the engine returns a best-effort partial Result
// (Partial set, ranked by the estimates at the stop point) together with
// a typed error — ErrCanceled for context stops, ErrBudgetExhausted for
// the row budget. A stop during a separate target resolution, before any
// sampling, or before an exact pass reached its candidate target returns
// a nil Result with the error. Interim state streams through
// Options.OnProgress.
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
	var auto *AutoDecision
	opts.Executor, auto = ResolveExecutor(opts, p.rows, p.grp.n, false)
	// The resolve_target span carries no IO: a separate target pass is
	// outside the run's IOStats by contract (Result.Duration excludes it
	// too), so attributing its I/O here would break the per-span-sum
	// invariant. On an exact run it times only the lookup.
	rsp := opts.Trace.Start("resolve_target")
	target, targetID, err := MaterializeTarget(t, p.grp.n, len(p.cand.blocks), p.cand.label)
	if err == nil && target == nil && !opts.Executor.exact() {
		target, err = p.scanCandidate(targetID, opts.Workers, guard)
	}
	rsp.End()
	if err != nil {
		return nil, err
	}
	return p.run(target, targetID, auto, opts, guard)
}

// RunWithTarget answers the plan against a pre-resolved target histogram.
// The Plan is immutable: concurrent RunWithTarget calls on one Plan are
// safe, each run owning its private sampler state.
func (p *Plan) RunWithTarget(target *histogram.Histogram, opts Options) (*Result, error) {
	return p.RunWithTargetContext(context.Background(), target, opts)
}

// RunWithTargetContext is RunWithTarget governed by a context, with the
// same validation and cancellation contract as Plan.RunContext.
func (p *Plan) RunWithTargetContext(ctx context.Context, target *histogram.Histogram, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if target.Groups() != p.grp.n {
		return nil, fmt.Errorf("engine: target has %d groups, query produces %d", target.Groups(), p.grp.n)
	}
	var auto *AutoDecision
	opts.Executor, auto = ResolveExecutor(opts, p.rows, p.grp.n, false)
	return p.run(target, 0, auto, opts, newRunGuard(ctx, opts.RowBudget))
}

// run executes the plan with opts.Executor, resolved from Auto (auto
// says why, or is nil), under an optional run guard; the caller has
// validated opts. The target is target, or when it is nil candidate
// targetID's histogram from the exact pass itself.
func (p *Plan) run(target *histogram.Histogram, targetID int, auto *AutoDecision, opts Options, guard *runGuard) (*Result, error) {
	began := time.Now()
	runSpan := opts.Trace.StartAt("run", began)
	runSpan.SetAttr("executor", opts.Executor.String())
	if auto != nil {
		runSpan.SetAttr("auto_need", auto.Need)
		runSpan.SetAttr("auto_sigma_rows", auto.SigmaRows)
		runSpan.SetAttr("auto_ratio", auto.Ratio)
		runSpan.SetAttr("auto_c", auto.C)
	}
	defer runSpan.End()
	var rec *runRecord // nil for an unobserved run
	if opts.OnProgress != nil || opts.Trace != nil {
		rec = &runRecord{began: began, onProgress: opts.OnProgress, span: runSpan, at: began}
	}
	if opts.Executor.exact() {
		workers := 1
		if opts.Executor == ParallelScan {
			workers = opts.Workers
		}
		res, err := p.runScan(target, targetID, opts, workers, guard, rec)
		if res == nil {
			return nil, err
		}
		res.Duration = time.Since(began)
		res.GroupLabels = p.grp.labels()
		return res, err
	}
	start := opts.StartBlock
	if nb := p.engine.src.NumBlocks(); start < 0 && nb > 0 {
		start = rand.New(rand.NewSource(opts.Seed)).Intn(nb)
	}
	bs := p.newSampler(opts, start, guard)
	coreRes, err := core.RunObserved(bs, target, opts.Params, rec.observer(bs.Stats, p.cand.label))
	rec.finish(bs.Stats())
	if err != nil && (coreRes == nil || !interrupted(err)) {
		return nil, err
	}
	return samplingResult(coreRes, bs.Stats(), time.Since(began), p.grp.labels(), p.cand.label), err
}

// runRecord is an observed run's one record of what it reported. Every
// emission — a sampling phase's end (after stage 1, every stage-2 round,
// stage 3) or a sequential scan's interval — is stamped once, with the
// time and the run's cumulative IO, as a Progress frame. OnProgress
// receives the frame; a traced sampling run also gets a span per phase
// cut from it, whose IO is the difference of two consecutive stamps and
// whose attrs are the frame's fields. Exact scans trace their workers
// instead (see scanExec.run). The record is nil when the run has neither
// OnProgress nor a Trace, so an unobserved run does no observation work.
type runRecord struct {
	began      time.Time
	onProgress func(Progress)
	span       *trace.Span // the run span; nil when untraced
	at         time.Time   // the last stamp's time
	io         IOStats     // the last stamp's cumulative IO
}

// emit stamps one frame, f.IO being the run's cumulative IO, and renders
// it: a phase span for a traced sampling frame, then the frame itself for
// OnProgress. It runs on the run's goroutine (a scan's only worker).
func (r *runRecord) emit(f Progress) {
	now := time.Now()
	f.Elapsed = now.Sub(r.began)
	if r.span != nil && f.Phase != "scan" {
		name := f.Phase
		if f.Phase == "stage2" {
			name = fmt.Sprintf("stage2.round%d", f.Round)
		}
		sp := r.span.ChildAt(name, r.at)
		sp.SetAttr("drawn", f.SamplesDrawn)
		sp.SetAttr("active_candidates", f.ActiveCandidates)
		sp.SetAttr("gap", f.Quality.Gap)
		sp.SetAttr("slack", f.Quality.Slack)
		sp.SetAttr("churn", f.Quality.Churn)
		sp.SetIO(trace.IO(ioDelta(f.IO, r.io)))
		sp.EndAt(now)
	}
	r.at, r.io = now, f.IO
	if r.onProgress != nil {
		r.onProgress(f)
	}
}

// observer turns core's per-emission Snapshot into the record's frame;
// nil for an unobserved run.
func (r *runRecord) observer(stats func() IOStats, labelOf func(int) string) core.Observer {
	if r == nil {
		return nil
	}
	return func(s core.Snapshot) {
		f := Progress{
			Phase:            s.Phase,
			Round:            s.Round,
			ActiveCandidates: s.ActiveCandidates,
			SamplesDrawn:     s.Drawn,
			IO:               stats(),
			Quality: &ProgressQuality{
				Gap:              s.Gap,
				Slack:            s.Slack,
				Churn:            s.Churn,
				PrunedCandidates: s.PrunedCandidates,
			},
		}
		if len(s.TopK) > 0 {
			f.TopK = make([]ProgressMatch, len(s.TopK))
			for i, c := range s.TopK {
				f.TopK[i] = ProgressMatch{ID: c.ID, Label: labelOf(c.ID), Distance: c.Distance, CI: c.CI}
			}
		}
		r.emit(f)
	}
}

// finish closes a traced sampling run's record. An interrupted run
// salvages without a final emission, and a few I/O counters land after
// the last one, so it folds the residual into a closing "tail" span,
// keeping the tree's IO summing to the run's total.
func (r *runRecord) finish(io IOStats) {
	if r == nil || r.span == nil {
		return
	}
	if resid := ioDelta(io, r.io); resid != (IOStats{}) {
		sp := r.span.ChildAt("tail", r.at)
		sp.SetIO(trace.IO(resid))
		sp.End()
	}
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
		Wraps:         cur.Wraps - prev.Wraps,
	}
}
