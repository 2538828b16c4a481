package engine

import (
	"context"
	"fmt"
	"math"
	"time"

	"fastmatch/internal/histogram"
)

// Audit quantifies an approximate (sampling-executor) answer against the
// exact one: AuditRun re-executes the same plan and target with the exact
// Scan executor, ranks every candidate, and measures how well the
// approximate top-k matched it. The paper's contract is probabilistic —
// precision ≥ 1−ε at confidence 1−δ — so audits are the only way to
// observe whether the contract holds in practice; serving layers
// shadow-audit a fraction of production queries with this harness.
type Audit struct {
	// K is the audited answer size (len of the approximate TopK).
	K int `json:"k"`
	// Epsilon is the ε the approximate run claimed its guarantee at.
	Epsilon float64 `json:"epsilon"`
	// PrecisionAtK is the strict precision |approx ∩ exact top-k| / k.
	// The paper's guarantee tolerates ε-near misses, so this may dip
	// below 1 without a violation — see GuaranteeViolations.
	PrecisionAtK float64 `json:"precision_at_k"`
	// GuaranteeViolations counts returned candidates whose exact distance
	// exceeds the exact k-th best distance by more than ε — answers the
	// separation guarantee actually forbids (they should occur with
	// probability ≤ δ across runs).
	GuaranteeViolations int `json:"guarantee_violations"`
	// ReconstructionViolations counts returned matches whose
	// reconstructed histogram lies ε or more from the candidate's exact
	// histogram — answers Guarantee 2 forbids. Matches without a
	// histogram are not graded.
	ReconstructionViolations int `json:"reconstruction_violations"`
	// ExactKthDistance is the exact distance of the true k-th best
	// candidate, the reference for the guarantee check.
	ExactKthDistance float64 `json:"exact_kth_distance"`
	// MeanAbsError / MaxAbsError aggregate |approx − exact| distance
	// error over the returned matches.
	MeanAbsError float64 `json:"mean_abs_error"`
	MaxAbsError  float64 `json:"max_abs_error"`
	// MaxDisplacement is the largest |approx rank − exact rank| over the
	// returned matches.
	MaxDisplacement int `json:"max_displacement"`
	// Candidates details every returned match, in approximate-rank order.
	Candidates []AuditCandidate `json:"candidates"`
	// ExactIO and ExactDuration report what the exact reference pass
	// cost — the price of the audit itself.
	ExactIO       IOStats       `json:"exact_io"`
	ExactDuration time.Duration `json:"exact_duration_ns"`
}

// AuditCandidate compares one returned match against the exact ranking.
type AuditCandidate struct {
	ID    int    `json:"id"`
	Label string `json:"label"`
	// ApproxRank/ExactRank are 0-based positions in the approximate and
	// exact rankings.
	ApproxRank int `json:"approx_rank"`
	ExactRank  int `json:"exact_rank"`
	// ApproxDistance/ExactDistance are the estimated and true distances;
	// AbsError their absolute difference.
	ApproxDistance float64 `json:"approx_distance"`
	ExactDistance  float64 `json:"exact_distance"`
	AbsError       float64 `json:"abs_error"`
	// InExactTopK reports membership in the exact top-k (the strict
	// precision numerator); Violation that the candidate breaks the
	// ε-tolerant separation guarantee; ReconstructionViolation that its
	// histogram breaks Guarantee 2.
	InExactTopK             bool `json:"in_exact_topk"`
	Violation               bool `json:"violation,omitempty"`
	ReconstructionViolation bool `json:"reconstruction_violation,omitempty"`
}

// AuditRun re-executes the plan and target with the exact Scan executor
// and measures the approximate answer against the full exact ranking:
// strict precision@k, rank displacement, per-candidate distance error,
// and violations of both guarantees. opts should be the options the
// approximate run used — its Params (ε, σ, metric) parameterize the
// audit; executor-specific knobs are ignored. Partial approximate
// answers are refused: a truncated run claimed no guarantee, so auditing
// one would count phantom violations.
//
// The exact pass ranks every candidate (no σ pruning, k = |candidates|),
// so it costs a full scan of the qualifying blocks; run audits off the
// request path. The grade, though, is at the run's σ: the guarantee only
// covers candidates holding at least σ·N rows (stage 1 prunes the rest on
// purpose), so every other candidate the approximate answer did not
// return is dropped from the reference before grading. Left in, rare
// near neighbours of a rare target would pull the exact k-th distance
// down and count violations the guarantee never forbade.
func AuditRun(ctx context.Context, p *Plan, target *histogram.Histogram, approx *Result, opts Options) (*Audit, error) {
	if approx == nil || len(approx.TopK) == 0 {
		return nil, fmt.Errorf("engine: nothing to audit: empty approximate answer")
	}
	if approx.Partial {
		return nil, fmt.Errorf("engine: refusing to audit a partial answer: no guarantee was claimed")
	}
	exOpts := AuditReferenceOptions(opts, p.NumCandidates())
	exact, err := p.RunWithTargetContext(ctx, target, exOpts)
	if err != nil {
		return nil, fmt.Errorf("engine: audit reference scan: %w", err)
	}
	returned := make(map[int]bool, len(approx.TopK))
	for _, m := range approx.TopK {
		returned[m.ID] = true
	}
	minRows := opts.Params.Sigma * float64(p.engine.src.NumRows())
	kept := exact.TopK[:0]
	for _, m := range exact.TopK {
		if returned[m.ID] || m.Histogram.Total() >= minRows {
			kept = append(kept, m)
		}
	}
	exact.TopK = kept
	// Guarantee 2 is graded as the run claimed it: in the run's metric,
	// at ε₂ when the run set a distinct one.
	eps2 := opts.Params.EpsilonReconstruct
	if eps2 <= 0 {
		eps2 = opts.Params.Epsilon
	}
	return gradeAudit(approx, exact, opts.Params.Epsilon, eps2, opts.Params.Metric)
}

// AuditReferenceOptions derives the options for an audit's exact
// reference pass from the approximate run's options: the Scan executor
// ranking every candidate (no σ pruning, k = candidate count, no
// KRange), with the approximate run's metric. Shared by AuditRun and
// graders that run their own reference pass.
func AuditReferenceOptions(opts Options, numCandidates int) Options {
	exOpts := Options{Params: opts.Params, Executor: Scan}
	exOpts.Params.K = numCandidates
	exOpts.Params.KRange.KMin, exOpts.Params.KRange.KMax = 0, 0
	exOpts.Params.Sigma = 0 // the reference must rank every candidate
	exOpts.Params.CollectQuality = false
	return exOpts
}

// GradeAudit measures an approximate answer against an exact reference
// ranking (every candidate ranked, no pruning): strict precision@k, rank
// displacement, per-candidate distance error, and violations of both
// guarantees — separation (exact distance beyond the exact k-th best by
// more than ε) and, for every match that carries a histogram,
// reconstruction (L1 distance to the reference histogram of the same
// candidate at least ε). It is the grading half of AuditRun and the
// repository's one grader.
func GradeAudit(approx, exact *Result, epsilon float64) (*Audit, error) {
	return gradeAudit(approx, exact, epsilon, epsilon, histogram.MetricL1)
}

// gradeAudit is GradeAudit with Guarantee 2 graded in metric at eps2.
func gradeAudit(approx, exact *Result, epsilon, eps2 float64, metric histogram.Metric) (*Audit, error) {
	k := len(approx.TopK)
	if len(exact.TopK) < k {
		return nil, fmt.Errorf("engine: audit reference ranked %d candidates, approximate answer has %d", len(exact.TopK), k)
	}

	rank := make(map[int]int, len(exact.TopK))
	for i, m := range exact.TopK {
		rank[m.ID] = i
	}
	a := &Audit{
		K:                k,
		Epsilon:          epsilon,
		ExactKthDistance: exact.TopK[k-1].Distance,
		ExactIO:          exact.IO,
		ExactDuration:    exact.Duration,
		Candidates:       make([]AuditCandidate, 0, k),
	}
	hits := 0
	for i, m := range approx.TopK {
		er, ok := rank[m.ID]
		if !ok {
			return nil, fmt.Errorf("engine: audit: candidate %q missing from exact ranking", m.Label)
		}
		ref := exact.TopK[er]
		ed := ref.Distance
		ae := math.Abs(m.Distance - ed)
		disp := er - i
		if disp < 0 {
			disp = -disp
		}
		c := AuditCandidate{
			ID:             m.ID,
			Label:          m.Label,
			ApproxRank:     i,
			ExactRank:      er,
			ApproxDistance: m.Distance,
			ExactDistance:  ed,
			AbsError:       ae,
			InExactTopK:    er < k,
			Violation:      ed > a.ExactKthDistance+a.Epsilon,
		}
		if m.Histogram != nil && ref.Histogram != nil {
			c.ReconstructionViolation = metric.Distance(m.Histogram, ref.Histogram) >= eps2
		}
		if c.InExactTopK {
			hits++
		}
		if c.Violation {
			a.GuaranteeViolations++
		}
		if c.ReconstructionViolation {
			a.ReconstructionViolations++
		}
		if disp > a.MaxDisplacement {
			a.MaxDisplacement = disp
		}
		if ae > a.MaxAbsError {
			a.MaxAbsError = ae
		}
		a.MeanAbsError += ae
		a.Candidates = append(a.Candidates, c)
	}
	a.PrecisionAtK = float64(hits) / float64(k)
	a.MeanAbsError /= float64(k)
	return a, nil
}
