// Package core implements HistSim (Algorithm 1 of the paper): the
// probabilistic top-k histogram matching algorithm with separation and
// reconstruction guarantees. The algorithm is sampler-agnostic — it
// consumes uniform samples through the Sampler interface and is correct
// regardless of how the I/O layer produces them, which is exactly the
// contract the FastMatch engine (internal/engine) exploits with its
// block-based, bitmap-guided sampling.
//
// Every stage-2 round asks the sampler for exactly the per-candidate
// sample counts n'_i of the paper's Equation (1), with no I/O clamp.
//
// A run reports as it goes: after stage 1, after every stage-2 round and
// after stage 3 it hands its Observer one Snapshot — the phase, the
// samples drawn, the interim ranking with each candidate's confidence
// interval, and the convergence telemetry (gap, slack, churn). That one
// record per emission is the run's only interim view; the engine renders
// both its progress frames and its trace phase spans from it.
package core

import (
	"fmt"

	"fastmatch/internal/histogram"
)

// Params carries the user-supplied knobs of Problem 1 plus the extensions
// of Appendix A.2. None of them reshapes a round: each stage-2 round
// demands Equation (1)'s n'_i as computed.
type Params struct {
	// K is the number of matching histograms to retrieve.
	K int
	// Epsilon is the approximation error bound ε shared by Guarantees 1
	// and 2 (paper default 0.04).
	Epsilon float64
	// EpsilonReconstruct, when positive, overrides Epsilon for Guarantee 2
	// only (Appendix A.2.1's distinct ε₁/ε₂).
	EpsilonReconstruct float64
	// Delta is the total error probability bound δ (paper default 0.01).
	Delta float64
	// Sigma is the minimum selectivity threshold σ below which candidates
	// may be pruned (paper default 0.0008).
	Sigma float64
	// Stage1Samples is m, the stage-1 uniform sample size (paper default
	// 5·10⁵ on ~600M rows; callers should scale to their data size).
	Stage1Samples int
	// Metric selects the distance (L1 by default; L2 per Appendix A.2.2).
	Metric histogram.Metric
	// KRange, when KMax > 0, lets HistSim pick any k in [KMin, KMax],
	// choosing the k with the widest distance gap each round so
	// termination comes as early as possible (Appendix A.2.3).
	KRange struct{ KMin, KMax int }
	// MaxRounds caps stage-2 rounds as a defensive limit; 0 selects 64.
	// Exhausting the data always terminates the algorithm first in
	// practice, since the per-round sample demand grows geometrically.
	MaxRounds int
}

// epsSeparation returns ε₁ (Guarantee 1).
func (p Params) epsSeparation() float64 { return p.Epsilon }

// epsReconstruct returns ε₂ (Guarantee 2).
func (p Params) epsReconstruct() float64 {
	if p.EpsilonReconstruct > 0 {
		return p.EpsilonReconstruct
	}
	return p.Epsilon
}

// maxRounds returns the effective stage-2 round cap.
func (p Params) maxRounds() int {
	if p.MaxRounds > 0 {
		return p.MaxRounds
	}
	return 64
}

// InvalidParamsError reports an out-of-range Params field, naming it.
type InvalidParamsError struct {
	// Field names the offending Params field, e.g. "Epsilon".
	Field string
	// Reason describes the constraint that failed.
	Reason string
}

// Error implements error.
func (e *InvalidParamsError) Error() string {
	return fmt.Sprintf("core: invalid parameter %s: %s", e.Field, e.Reason)
}

// Validate checks every parameter and returns an *InvalidParamsError
// naming the first offending field. NaN fails every range check.
func (p Params) Validate() error {
	bad := func(field, format string, args ...any) error {
		return &InvalidParamsError{Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	if p.K < 1 && p.KRange.KMax <= 0 {
		return bad("K", "k must be ≥ 1, got %d", p.K)
	}
	if !(p.Epsilon > 0 && p.Epsilon <= 2) {
		return bad("Epsilon", "ε must be in (0, 2], got %g", p.Epsilon)
	}
	if !(p.EpsilonReconstruct >= 0 && p.EpsilonReconstruct <= 2) {
		return bad("EpsilonReconstruct", "ε₂ must be in [0, 2], got %g", p.EpsilonReconstruct)
	}
	if !(p.Delta > 0 && p.Delta < 1) {
		return bad("Delta", "δ must be in (0, 1), got %g", p.Delta)
	}
	if !(p.Sigma >= 0 && p.Sigma < 1) {
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
	return nil
}

// Batch is the result of one I/O phase: fresh per-candidate sample counts
// and group-count histograms, independent of all previous batches (the
// "∂" quantities of §3.4).
type Batch struct {
	// Drawn is the total number of tuples consumed producing this batch,
	// including tuples that matched no candidate (e.g. rows removed by a
	// WHERE predicate). When zero, the per-candidate counts sum is used.
	// Stage 1's hypergeometric test needs this as its draw count m.
	Drawn int64
	// Counts[i] is n∂_i, the number of fresh samples for candidate i.
	Counts []int64
	// Hists[i] is r∂_i, the fresh group counts for candidate i. Entries
	// may be nil for candidates with zero fresh samples.
	Hists []*histogram.Histogram
	// Exhausted reports that the underlying data has been fully consumed:
	// cumulative estimates are now exact, and no further sampling is
	// possible.
	Exhausted bool
	// Exact, when non-nil, flags candidates whose tuples have been fully
	// consumed across all batches: their cumulative estimates are exact
	// (d(r_i, r*_i) = 0), so hypothesis tests about them can be decided
	// deterministically. Samplers without per-candidate exhaustion
	// tracking may leave this nil.
	Exact []bool
}

// IsExact reports whether candidate i is flagged exact.
func (b *Batch) IsExact(i int) bool {
	return b.Exact != nil && b.Exact[i]
}

// Sampler abstracts the I/O layer. Implementations must return uniform
// samples without replacement across calls; HistSim's correctness
// (Theorem 2) holds for any such implementation.
type Sampler interface {
	// NumCandidates returns |V_Z|, the candidate-attribute cardinality.
	NumCandidates() int
	// Groups returns |V_X|, the grouping-attribute cardinality.
	Groups() int
	// TotalRows returns N, the number of tuples in the relation (used by
	// the stage-1 hypergeometric test).
	TotalRows() int64
	// Stage1 draws up to m uniform samples without replacement from the
	// whole relation.
	Stage1(m int) (*Batch, error)
	// SampleUntil draws fresh samples until every candidate id in need
	// has at least need[id] samples in the returned batch, or the data is
	// exhausted. Samples incidentally collected for other candidates may
	// be included; they only sharpen the cumulative estimates.
	SampleUntil(need map[int]int) (*Batch, error)
}
