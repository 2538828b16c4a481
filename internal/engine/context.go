package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"fastmatch/internal/core"
)

// Typed run-termination errors. A run cut short returns one of these
// (test with errors.Is) alongside a best-effort partial Result — see
// Plan.RunContext for the full progressive contract.
var (
	// ErrCanceled marks a run stopped by its context (cancellation or
	// deadline). The chain also wraps the underlying context error, so
	// errors.Is(err, context.Canceled) distinguishes an abandoned request
	// from errors.Is(err, context.DeadlineExceeded), a timed-out one.
	ErrCanceled = errors.New("engine: run canceled")
	// ErrBudgetExhausted marks a run stopped by Options.RowBudget.
	ErrBudgetExhausted = errors.New("engine: row budget exhausted")
)

// Progress is the interim state of a run in flight, delivered through
// Options.OnProgress. Sampling executors emit one after stage 1, after
// every HistSim round, and after stage 3; the sequential Scan executor
// emits one every few hundred blocks of its pass (ParallelScan's workers
// race, so it reports no interim frames). Estimates carry no guarantee
// until the run terminates.
type Progress struct {
	// Phase is "stage1", "stage2", "stage3" (sampling executors) or
	// "scan" (exact pass).
	Phase string `json:"phase"`
	// Round is the HistSim stage-2 round just completed (0 elsewhere).
	Round int `json:"round,omitempty"`
	// TopK is the current best-k by estimated distance, ascending
	// (empty for "scan" frames, which track the pass, not the ranking).
	TopK []ProgressMatch `json:"topk,omitempty"`
	// ActiveCandidates counts candidates still under consideration.
	ActiveCandidates int `json:"active_candidates,omitempty"`
	// SamplesDrawn is the cumulative tuples HistSim has consumed.
	SamplesDrawn int64 `json:"samples_drawn"`
	// IO is a snapshot of the run's block-level I/O counters.
	IO IOStats `json:"io"`
	// Elapsed is wall-clock time since the run began. It is the one
	// nondeterministic field; consumers comparing progress sequences
	// should zero it.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Quality carries convergence telemetry (observed margin vs ε,
	// ranking churn), present only when Options.Quality is set.
	Quality *ProgressQuality `json:"quality,omitempty"`
}

// ProgressMatch is one candidate in a Progress ranking: the current
// distance estimate, without the (large) reconstructed histogram.
type ProgressMatch struct {
	ID       int     `json:"id"`
	Label    string  `json:"label"`
	Distance float64 `json:"distance"`
	// CI is the (1−δ) confidence-interval half-width around Distance,
	// present (nonzero) only when Options.Quality is set.
	CI float64 `json:"ci,omitempty"`
}

// runGuard enforces a run's termination conditions — context
// cancellation, deadline, row budget — at block-batch granularity: every
// executor consults stop() between block reads and unwinds cleanly when
// it fires. A nil guard (the common case: no cancelable context, no
// budget) costs one nil check per block. The context is the only
// deadline: callers wanting one use context.WithDeadline.
type runGuard struct {
	ctx    context.Context // nil when no context governs the run
	budget int64           // ≤ 0 when unlimited
	rows   atomic.Int64    // rows consumed, shared across scan workers
}

// newRunGuard builds the guard for a run, or nil when nothing needs
// enforcing. A context that can never be canceled (context.Background())
// contributes nothing.
func newRunGuard(ctx context.Context, budget int64) *runGuard {
	hasCtx := ctx != nil && ctx.Done() != nil
	if !hasCtx && budget <= 0 {
		return nil
	}
	g := &runGuard{budget: budget}
	if hasCtx {
		g.ctx = ctx
	}
	return g
}

// addRows charges consumed rows against the budget.
func (g *runGuard) addRows(n int64) {
	if g != nil && g.budget > 0 {
		g.rows.Add(n)
	}
}

// BudgetStopError is the typed termination error for an exhausted row
// budget: ErrBudgetExhausted wrapping core.ErrInterrupted. Exported so a
// cluster coordinator reconstructing a shard's stop produces the exact
// error a single-node run would have.
func BudgetStopError(budget, read int64) error {
	return fmt.Errorf("%w (budget %d, read %d) (%w)", ErrBudgetExhausted, budget, read, core.ErrInterrupted)
}

// CanceledStopError is the typed termination error for a context or
// deadline stop: ErrCanceled wrapping the cause and core.ErrInterrupted.
func CanceledStopError(cause error) error {
	return fmt.Errorf("%w: %w (%w)", ErrCanceled, cause, core.ErrInterrupted)
}

// stop returns nil while the run may continue, or the typed termination
// error. The error chain wraps core.ErrInterrupted so HistSim folds the
// partial batch in and salvages a best-effort answer, plus
// ErrCanceled/ErrBudgetExhausted (and the context error) for callers.
func (g *runGuard) stop() error {
	if g == nil {
		return nil
	}
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			return CanceledStopError(err)
		}
	}
	if g.budget > 0 && g.rows.Load() >= g.budget {
		return BudgetStopError(g.budget, g.rows.Load())
	}
	return nil
}

// interrupted reports whether err is a guard termination carrying a
// salvageable partial result.
func interrupted(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrBudgetExhausted)
}

// isBudget distinguishes a budget stop from a cancellation.
func isBudget(err error) bool { return errors.Is(err, ErrBudgetExhausted) }
