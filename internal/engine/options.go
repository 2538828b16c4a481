package engine

import (
	"fmt"
	"math"

	"fastmatch/internal/core"
	"fastmatch/internal/histogram"
)

// DefaultOptions returns the paper's default configuration scaled to a
// dataset of totalRows tuples: k=10, ε=0.04, δ=0.01, σ=0.0008,
// lookahead=1024 blocks, the Auto executor, and a stage-1 sample of
// max(rows/20, 2000) capped at the paper's m = 5·10⁵. Auto answers
// exactly with Scan when need = SamplesFor(|V_X|, ε/2, δ/6) ≥ σN/4 or
// σ = 0, and samples with FastMatch otherwise (see ResolveExecutor).
// Seed is left at zero — a fixed seed, not a random one; see the root
// package's DefaultOptions doc for the seeding discussion.
func DefaultOptions(totalRows int) Options {
	m := totalRows / 20
	if m < 2000 {
		m = 2000
	}
	if m > 500_000 {
		m = 500_000
	}
	return Options{
		Params: core.Params{
			K:             10,
			Epsilon:       0.04,
			Delta:         0.01,
			Sigma:         0.0008,
			Stage1Samples: m,
			Metric:        histogram.MetricL1,
		},
		Executor:   Auto,
		Lookahead:  1024,
		StartBlock: -1,
	}
}

// autoScanRatio is c in Auto's rule: scan once need ≥ σN/c. A survivor
// holds ≥ σN rows spread over a shuffled table, so the closer need comes
// to σN, the more blocks hold rows of an active candidate and the less
// AnyActive can skip. FastMatch read 41–59 % of the table at need/σN ≈
// 0.29 and 60–98 % at 0.46; at 1.0–1.6× the scan's per-tuple cost (2
// vCPU, 20M rows) plus stage-1 and round overheads it breaks even only
// below about ⅔ read. c = 4 keeps every sampled run below the 0.29 cell.
const autoScanRatio = 4

// AutoDecision is why Auto resolved as it did: need, σN, need/σN (omitted
// when σN = 0) and c.
type AutoDecision struct {
	Need      int     `json:"need"`
	SigmaRows float64 `json:"sigma_rows"`
	Ratio     float64 `json:"ratio,omitempty"`
	C         float64 `json:"c"`
}

// ResolveExecutor names the executor a run over rows tuples and groups
// histogram groups uses, decided before any I/O: ParallelScan on a
// coordinated table, an explicit executor as asked, and for Auto Scan
// when need = SamplesFor(groups, ε/2, δ/6) ≥ σN/c or σ = 0, FastMatch
// otherwise. The decision is returned only when Auto was resolved.
func ResolveExecutor(opts Options, rows, groups int, coordinated bool) (Executor, *AutoDecision) {
	if coordinated {
		return ParallelScan, nil
	}
	if opts.Executor != Auto {
		return opts.Executor, nil
	}
	p := opts.Params
	d := &AutoDecision{
		Need:      p.Metric.SamplesFor(groups, p.Epsilon/2, p.Delta/6),
		SigmaRows: p.Sigma * float64(rows),
		C:         autoScanRatio,
	}
	if d.SigmaRows > 0 {
		d.Ratio = float64(d.Need) / d.SigmaRows
	}
	if float64(d.Need)*autoScanRatio >= d.SigmaRows { // σN = 0 always scans
		return Scan, d
	}
	return FastMatch, d
}

// InvalidOptionsError reports a nonsensical Options value, naming the
// offending field. It is returned (wrapped or not) by Options.Validate and
// by every Run entry point before any sampling happens, so a malformed
// request can never reach undefined behavior deep in the sampler. Callers
// detect it with errors.As — a serving layer maps it to a 4xx response
// while genuine execution failures stay 5xx.
type InvalidOptionsError struct {
	// Field names the offending Options/Params field, e.g. "Epsilon".
	Field string
	// Reason describes the constraint that failed.
	Reason string
}

// Error implements error.
func (e *InvalidOptionsError) Error() string {
	return fmt.Sprintf("engine: invalid option %s: %s", e.Field, e.Reason)
}

// Validate checks every run-affecting field and returns an
// *InvalidOptionsError naming the first offending one. The zero Options
// value is NOT valid (K and Epsilon are zero); DefaultOptions always is.
func (o Options) Validate() error {
	bad := func(field, format string, args ...any) error {
		return &InvalidOptionsError{Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	p := o.Params
	if p.K < 1 && p.KRange.KMax <= 0 {
		return bad("K", "k must be ≥ 1, got %d", p.K)
	}
	if math.IsNaN(p.Epsilon) || !(p.Epsilon > 0 && p.Epsilon <= 2) {
		return bad("Epsilon", "ε must be in (0, 2], got %g", p.Epsilon)
	}
	if math.IsNaN(p.EpsilonReconstruct) || p.EpsilonReconstruct < 0 || p.EpsilonReconstruct > 2 {
		return bad("EpsilonReconstruct", "ε₂ must be in [0, 2], got %g", p.EpsilonReconstruct)
	}
	if math.IsNaN(p.Delta) || !(p.Delta > 0 && p.Delta < 1) {
		return bad("Delta", "δ must be in (0, 1), got %g", p.Delta)
	}
	if math.IsNaN(p.Sigma) || p.Sigma < 0 || p.Sigma >= 1 {
		return bad("Sigma", "σ must be in [0, 1), got %g", p.Sigma)
	}
	if p.Stage1Samples < 0 {
		return bad("Stage1Samples", "stage-1 sample size must be ≥ 0, got %d", p.Stage1Samples)
	}
	if p.KRange.KMax > 0 && (p.KRange.KMin < 1 || p.KRange.KMin > p.KRange.KMax) {
		return bad("KRange", "invalid k range [%d, %d]", p.KRange.KMin, p.KRange.KMax)
	}
	if p.MaxRounds < 0 {
		return bad("MaxRounds", "round cap must be ≥ 0, got %d", p.MaxRounds)
	}
	switch p.Metric {
	case histogram.MetricL1, histogram.MetricL2:
	default:
		return bad("Metric", "unknown metric %d", int(p.Metric))
	}
	switch o.Executor {
	case Scan, ScanMatch, SyncMatch, FastMatch, ParallelScan, Auto:
	default:
		return bad("Executor", "unknown executor %d", int(o.Executor))
	}
	if o.RowBudget < 0 {
		return bad("RowBudget", "row budget must be ≥ 0, got %d", o.RowBudget)
	}
	return nil
}
