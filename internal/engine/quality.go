package engine

import (
	"fastmatch/internal/core"
)

// QualityReport is the engine-level answer-quality report: core.Quality
// with candidate labels resolved. Every sampling-executor run attaches it
// to Result.Quality; serving layers surface it next to (never inside) the
// serialized result, so result bytes stay identical whether or not a
// client asked for the report.
type QualityReport struct {
	// Rounds is the number of stage-2 refinement rounds the run used.
	Rounds int `json:"rounds"`
	// FinalGap is the terminal observed separation margin τ_(k+1) − τ_(k);
	// FinalSlack its distance from the ε threshold (FinalGap − ε).
	FinalGap   float64 `json:"final_gap"`
	FinalSlack float64 `json:"final_slack"`
	// Churn is the total top-k membership churn across emissions.
	Churn int `json:"churn"`
	// PrunedCandidates counts stage-1 rare-candidate prunes.
	PrunedCandidates int `json:"pruned_candidates,omitempty"`
	// Matches carries per-match estimate quality, aligned with
	// Result.TopK.
	Matches []MatchQuality `json:"matches,omitempty"`
	// Termination is "guarantee", "exact", or "truncated" (see
	// core.Quality.Termination); GuaranteeMet and Truncated are the
	// boolean views of it.
	Termination  string `json:"termination"`
	GuaranteeMet bool   `json:"guarantee_met"`
	Truncated    bool   `json:"truncated,omitempty"`
}

// MatchQuality is one returned match's estimate quality.
type MatchQuality struct {
	ID    int    `json:"id"`
	Label string `json:"label"`
	// Distance is the estimated distance; CI the (1−δ) confidence-interval
	// half-width around it (clamped to the metric's diameter).
	Distance float64 `json:"distance"`
	CI       float64 `json:"ci"`
	// Samples is the evidence behind the estimate; UnseenGroups the
	// histogram groups still without a single sample.
	Samples      int64 `json:"samples"`
	UnseenGroups int   `json:"unseen_groups,omitempty"`
}

// ProgressQuality is the per-frame convergence telemetry attached to
// every sampling-executor Progress frame: how wide the observed separation
// margin is relative to ε, and how stable the ranking is. Per-candidate
// confidence intervals ride on ProgressMatch.CI.
type ProgressQuality struct {
	Gap              float64 `json:"gap"`
	Slack            float64 `json:"slack"`
	Churn            int     `json:"churn"`
	PrunedCandidates int     `json:"pruned_candidates,omitempty"`
}

// qualityReport converts the core report, resolving candidate labels.
func qualityReport(q *core.Quality, label func(int) string) *QualityReport {
	r := &QualityReport{
		Rounds:           q.Rounds,
		FinalGap:         q.FinalGap,
		FinalSlack:       q.FinalSlack,
		Churn:            q.Churn,
		PrunedCandidates: q.PrunedCandidates,
		Termination:      q.Termination,
		GuaranteeMet:     q.GuaranteeMet,
		Truncated:        q.Truncated,
	}
	r.Matches = make([]MatchQuality, len(q.Matches))
	for i, m := range q.Matches {
		r.Matches[i] = MatchQuality{
			ID:           m.ID,
			Label:        label(m.ID),
			Distance:     m.Distance,
			CI:           m.CI,
			Samples:      m.Samples,
			UnseenGroups: m.UnseenGroups,
		}
	}
	return r
}
