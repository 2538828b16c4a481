package server

import (
	"fmt"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
)

// The wire types of the /v1/query API. Requests map one-to-one onto
// engine.Query / engine.Target / engine.Options; responses carry a fully
// deterministic result payload (everything the engine computes, minus
// wall-clock duration) so that identical seeded requests — served live or
// from the result cache — are byte-identical.

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Table names a registered table.
	Table string `json:"table"`
	// Query is the histogram-generating query template.
	Query QuerySpec `json:"query"`
	// Target specifies the visual target.
	Target TargetSpec `json:"target"`
	// Options overrides individual defaults; omitted fields keep
	// DefaultOptions values scaled to the table size.
	Options *OptionsSpec `json:"options,omitempty"`
	// Trace asks for the request's span tree in the response (the "trace"
	// field). Traced requests bypass the result-cache read — a cached
	// payload has no span tree to attach — but the result bytes are
	// byte-identical either way, and complete results are still cached
	// for untraced requests to reuse.
	Trace bool `json:"trace,omitempty"`
	// Quality asks for the run's answer-quality report in the response
	// (the "quality" field). Every sampling run collects it, and its
	// stream round frames carry per-round convergence telemetry, whether
	// or not it was asked for; a cache hit answers with the report of the
	// run that filled the cache. Sampling executors only (scan and
	// parallelscan answer exactly and report none).
	Quality bool `json:"quality,omitempty"`
}

// QuerySpec mirrors engine.Query for JSON transport; predicate candidates
// travel as CandidatePreds trees compiled against the table's
// dictionaries.
type QuerySpec struct {
	// Z names the candidate attribute. Ignored when CandidatePreds is set.
	Z string `json:"z"`
	// KnownCandidates restricts the candidate domain (Appendix A.1.5).
	KnownCandidates []string `json:"known_candidates,omitempty"`
	// CandidatePreds defines candidates as boolean predicates over
	// attribute values (Appendix A.1.2), one candidate per entry.
	CandidatePreds []PredSpec `json:"candidate_preds,omitempty"`
	// X names the grouping attribute(s).
	X []string `json:"x,omitempty"`
	// XMeasure with XBins groups by binning a continuous measure.
	XMeasure string    `json:"x_measure,omitempty"`
	XBins    *BinsSpec `json:"x_bins,omitempty"`
}

// PredSpec is the wire form of one predicate node: either a leaf
// equality {column, value} or a boolean combination {all} / {any} of
// child predicates. Exactly one of the three forms must be used.
type PredSpec struct {
	// Column/Value is the leaf form: Column == Value.
	Column string `json:"column,omitempty"`
	Value  string `json:"value,omitempty"`
	// All is a conjunction of child predicates.
	All []PredSpec `json:"all,omitempty"`
	// Any is a disjunction of child predicates.
	Any []PredSpec `json:"any,omitempty"`
}

// BinsSpec describes histogram bins: either N uniform bins over [Lo, Hi]
// or explicit strictly-increasing Edges.
type BinsSpec struct {
	Lo    float64   `json:"lo,omitempty"`
	Hi    float64   `json:"hi,omitempty"`
	N     int       `json:"n,omitempty"`
	Edges []float64 `json:"edges,omitempty"`
}

// TargetSpec mirrors engine.Target.
type TargetSpec struct {
	Counts    []float64 `json:"counts,omitempty"`
	Candidate string    `json:"candidate,omitempty"`
	Uniform   bool      `json:"uniform,omitempty"`
}

// OptionsSpec carries per-request overrides of DefaultOptions. Pointer
// fields distinguish "absent" from zero.
type OptionsSpec struct {
	K                  *int     `json:"k,omitempty"`
	Epsilon            *float64 `json:"epsilon,omitempty"`
	EpsilonReconstruct *float64 `json:"epsilon_reconstruct,omitempty"`
	Delta              *float64 `json:"delta,omitempty"`
	Sigma              *float64 `json:"sigma,omitempty"`
	Stage1Samples      *int     `json:"stage1_samples,omitempty"`
	// Metric is "l1" (default) or "l2".
	Metric string `json:"metric,omitempty"`
	// Executor is "auto" (default), "scan", "parallelscan", "scanmatch",
	// "syncmatch", or "fastmatch"; see engine.ResolveExecutor for auto.
	Executor   string `json:"executor,omitempty"`
	Lookahead  *int   `json:"lookahead,omitempty"`
	StartBlock *int   `json:"start_block,omitempty"`
	// Seed fixes the run's random start block; identical seeded requests
	// produce identical results (and hit the result cache).
	Seed *int64 `json:"seed,omitempty"`
	// Workers sets the exact path's intra-node fan-out: ParallelScan
	// partitions and a sampling run's candidate-target scan (an exact
	// run takes its candidate target from its own pass); more than
	// engine.MaxWorkers is a 422. Sampling rounds run on one goroutine
	// and ignore it. It enters the options fingerprint
	// only for parallelscan, so sampling requests that differ only in
	// workers share one result-cache entry.
	Workers *int `json:"workers,omitempty"`
	// RowBudget caps the tuples the run may read; exhausting it returns
	// a best-effort partial result (Partial set in the payload).
	RowBudget *int64 `json:"row_budget,omitempty"`
}

// ResultPayload is the JSON form of engine.Result, minus wall-clock
// duration: every field is a deterministic function of (table, query,
// target, options), which is what makes whole-result caching sound.
type ResultPayload struct {
	TopK   []MatchPayload `json:"topk"`
	Pruned []string       `json:"pruned,omitempty"`
	Exact  bool           `json:"exact"`
	// Partial flags a best-effort answer from a run stopped early by a
	// timeout or row budget: ranked by the estimates at the stop point,
	// no guarantees attached. Partial results are never cached, so a
	// complete result's payload stays byte-identical whether a timeout
	// was configured or not.
	Partial bool           `json:"partial,omitempty"`
	Stats   StatsPayload   `json:"stats"`
	IO      engine.IOStats `json:"io"`
	// GroupLabels names the histogram groups, aligned with the Histogram
	// vectors in TopK.
	GroupLabels []string `json:"group_labels"`
}

// MatchPayload is the JSON form of engine.Match.
type MatchPayload struct {
	ID       int     `json:"id"`
	Label    string  `json:"label"`
	Distance float64 `json:"distance"`
	// Histogram is the reconstructed per-group counts.
	Histogram []float64 `json:"histogram,omitempty"`
}

// StatsPayload is the JSON form of core.RunStats (per-round diagnostics
// elided — /v1/query is a serving API, not a debugging one).
type StatsPayload struct {
	SamplesStage1    int64 `json:"samples_stage1"`
	SamplesStage2    int64 `json:"samples_stage2"`
	SamplesStage3    int64 `json:"samples_stage3"`
	Rounds           int   `json:"rounds"`
	PrunedCandidates int   `json:"pruned_candidates"`
	ChosenK          int   `json:"chosen_k"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// toPayload converts an engine result into its deterministic wire form.
func toPayload(res *engine.Result) ResultPayload {
	out := ResultPayload{
		Exact:   res.Exact,
		Partial: res.Partial,
		Stats: StatsPayload{
			SamplesStage1:    res.Stats.SamplesStage1,
			SamplesStage2:    res.Stats.SamplesStage2,
			SamplesStage3:    res.Stats.SamplesStage3,
			Rounds:           res.Stats.Rounds,
			PrunedCandidates: res.Stats.PrunedCandidates,
			ChosenK:          res.Stats.ChosenK,
		},
		IO:          res.IO,
		GroupLabels: res.GroupLabels,
		Pruned:      res.Pruned,
	}
	out.TopK = make([]MatchPayload, len(res.TopK))
	for i, m := range res.TopK {
		mp := MatchPayload{ID: m.ID, Label: m.Label, Distance: m.Distance}
		if m.Histogram != nil {
			mp.Histogram = m.Histogram.Counts()
		}
		out.TopK[i] = mp
	}
	return out
}

// toQuery compiles the wire query into an engine query. The engine is
// needed to compile predicate candidates: predicate leaves resolve values
// to dictionary codes against the serving table. The engine plans their
// block sets from its bitmap indexes at Prepare.
func (qs QuerySpec) toQuery(eng *engine.Engine) (engine.Query, error) {
	q := engine.Query{
		Z:               qs.Z,
		KnownCandidates: qs.KnownCandidates,
		X:               qs.X,
		XMeasure:        qs.XMeasure,
	}
	if qs.XBins != nil {
		binner, err := qs.XBins.toBinner()
		if err != nil {
			return engine.Query{}, err
		}
		q.XBins = binner
	}
	if len(qs.CandidatePreds) > 0 {
		q.CandidatePreds = make([]bitmap.Predicate, len(qs.CandidatePreds))
		for i, ps := range qs.CandidatePreds {
			p, err := ps.toPredicate(eng)
			if err != nil {
				return engine.Query{}, fmt.Errorf("candidate_preds[%d]: %w", i, err)
			}
			q.CandidatePreds[i] = p
		}
	}
	return q, nil
}

// toPredicate compiles one wire predicate node against the table.
func (ps PredSpec) toPredicate(eng *engine.Engine) (bitmap.Predicate, error) {
	forms := 0
	if ps.Column != "" || ps.Value != "" {
		forms++
	}
	if len(ps.All) > 0 {
		forms++
	}
	if len(ps.Any) > 0 {
		forms++
	}
	if forms != 1 {
		return nil, fmt.Errorf("predicate needs exactly one of column/value, all, or any")
	}
	switch {
	case len(ps.All) > 0:
		children, err := toPredicates(eng, ps.All)
		if err != nil {
			return nil, err
		}
		return &bitmap.AndPred{Children: children}, nil
	case len(ps.Any) > 0:
		children, err := toPredicates(eng, ps.Any)
		if err != nil {
			return nil, err
		}
		return &bitmap.OrPred{Children: children}, nil
	}
	if ps.Column == "" || ps.Value == "" {
		return nil, fmt.Errorf("leaf predicate needs both column and value")
	}
	col, err := eng.Source().ColumnByName(ps.Column)
	if err != nil {
		return nil, err
	}
	code, ok := col.Dictionary().Code(ps.Value)
	if !ok {
		return nil, fmt.Errorf("column %q has no value %q", ps.Column, ps.Value)
	}
	return &bitmap.ValuePred{Column: ps.Column, Code: code}, nil
}

func toPredicates(eng *engine.Engine, specs []PredSpec) ([]bitmap.Predicate, error) {
	out := make([]bitmap.Predicate, len(specs))
	for i, ps := range specs {
		p, err := ps.toPredicate(eng)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// maxUniformBins caps x_bins.n, which sizes the binner's edge array:
// explicit edges cost at least two body bytes each ("1,"), so a uniform
// spec may ask for no more bins than an explicit one could spell.
const maxUniformBins = maxRequestBody / 2

// toBinner compiles a bins spec.
func (bs BinsSpec) toBinner() (*colstore.Binner, error) {
	if len(bs.Edges) > 0 {
		if bs.N != 0 || bs.Lo != 0 || bs.Hi != 0 {
			return nil, fmt.Errorf("x_bins: give either edges or lo/hi/n, not both")
		}
		return colstore.NewBinner(bs.Edges)
	}
	if bs.N > maxUniformBins {
		return nil, fmt.Errorf("x_bins: n %d exceeds %d bins", bs.N, maxUniformBins)
	}
	return colstore.NewUniformBinner(bs.Lo, bs.Hi, bs.N)
}

// toTarget compiles the wire target.
func (ts TargetSpec) toTarget() engine.Target {
	return engine.Target{Counts: ts.Counts, Candidate: ts.Candidate, Uniform: ts.Uniform}
}

// apply overlays the spec's set fields onto opts.
func (os *OptionsSpec) apply(opts *engine.Options) error {
	if os == nil {
		return nil
	}
	if os.K != nil {
		opts.Params.K = *os.K
	}
	if os.Epsilon != nil {
		opts.Params.Epsilon = *os.Epsilon
	}
	if os.EpsilonReconstruct != nil {
		opts.Params.EpsilonReconstruct = *os.EpsilonReconstruct
	}
	if os.Delta != nil {
		opts.Params.Delta = *os.Delta
	}
	if os.Sigma != nil {
		opts.Params.Sigma = *os.Sigma
	}
	if os.Stage1Samples != nil {
		opts.Params.Stage1Samples = *os.Stage1Samples
	}
	if os.Metric != "" {
		m, err := histogram.ParseMetric(os.Metric)
		if err != nil {
			return err
		}
		opts.Params.Metric = m
	}
	if os.Executor != "" {
		exec, err := engine.ParseExecutor(os.Executor)
		if err != nil {
			return err
		}
		opts.Executor = exec
	}
	if os.Lookahead != nil {
		opts.Lookahead = *os.Lookahead
	}
	if os.StartBlock != nil {
		opts.StartBlock = *os.StartBlock
	}
	if os.Seed != nil {
		opts.Seed = *os.Seed
	}
	if os.Workers != nil {
		opts.Workers = *os.Workers
	}
	if os.RowBudget != nil {
		opts.RowBudget = *os.RowBudget
	}
	return nil
}
