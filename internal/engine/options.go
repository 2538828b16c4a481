package engine

import (
	"errors"
	"fmt"

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
// Those costs are a one-goroutine scan's; a scan on every core moves the
// break-even, and a measured σ sweep (ROADMAP.md item 5) re-fits c.
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
// while genuine execution failures stay 5xx. Params fields carry the
// field and reason of core's *InvalidParamsError.
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

// MaxWorkers caps the exact path's worker count a caller may ask for.
// Each worker holds a candidates × groups accumulator of up to 32 MiB
// (see PlanTooLargeError), so the cap is fixed, not the machine's CPU
// count: a request cannot buy thousands of accumulators. A count ≤ 0
// still selects GOMAXPROCS.
const MaxWorkers = 64

// Validate checks every run-affecting field and returns an
// *InvalidOptionsError naming the first offending one: the Params
// through core.Params.Validate, then the executor, the row budget and
// the worker count.
// The zero Options value is NOT valid (K and Epsilon are zero);
// DefaultOptions always is.
func (o Options) Validate() error {
	bad := func(field, format string, args ...any) error {
		return &InvalidOptionsError{Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	var pe *core.InvalidParamsError
	if errors.As(o.Params.Validate(), &pe) {
		return &InvalidOptionsError{Field: pe.Field, Reason: pe.Reason}
	}
	switch o.Executor {
	case Scan, ScanMatch, SyncMatch, FastMatch, ParallelScan, Auto:
	default:
		return bad("Executor", "unknown executor %d", int(o.Executor))
	}
	if o.RowBudget < 0 {
		return bad("RowBudget", "row budget must be ≥ 0, got %d", o.RowBudget)
	}
	if o.Workers > MaxWorkers {
		return bad("Workers", "at most %d workers, got %d", MaxWorkers, o.Workers)
	}
	return nil
}
