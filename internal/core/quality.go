package core

import (
	"fastmatch/internal/histogram"
)

// Quality telemetry: HistSim's answer comes with a probabilistic contract
// (precision ≥ 1−ε at confidence 1−δ), and this file makes the contract
// observable. Every emission (after stage 1, after each stage-2 round,
// after stage 3) carries in its Snapshot how the estimates are
// converging, and the final Result carries a Quality report describing
// how — and how trustworthily — the run terminated.
// Collection never changes the answer: it reads the cumulative estimates
// the algorithm already maintains.

// CandidateQuality describes the estimate quality of one ranked
// candidate: its current distance estimate, a confidence-interval
// half-width around it, and how much evidence backs it.
type CandidateQuality struct {
	// ID is the internal candidate id.
	ID int `json:"id"`
	// Distance is the estimated (or exact) distance to the target.
	Distance float64 `json:"distance"`
	// CI is the half-width of the (1−δ) confidence interval around
	// Distance: with probability ≥ 1−δ the true distance lies within
	// Distance ± CI (via Metric.Deviation and the triangle inequality).
	// Clamped to the metric's diameter (2) so it stays JSON-encodable
	// for candidates with no samples yet.
	CI float64 `json:"ci"`
	// Samples is the cumulative sample count n_i behind the estimate.
	Samples int64 `json:"samples"`
	// UnseenGroups counts histogram groups with zero cumulative samples
	// for this candidate — groups whose share is still pure prior. High
	// values flag rare-group reconstruction risk.
	UnseenGroups int `json:"unseen_groups,omitempty"`
}

// Quality is the final answer-quality report attached to every Result.
type Quality struct {
	// Rounds is the number of stage-2 rounds the run used.
	Rounds int `json:"rounds"`
	// FinalGap and FinalSlack are the terminal observed margin and its
	// distance from ε₁ (see Snapshot.Gap and Snapshot.Slack).
	FinalGap   float64 `json:"final_gap"`
	FinalSlack float64 `json:"final_slack"`
	// Churn is the total top-k membership churn summed over emissions —
	// a measure of how unstable the ranking was while converging.
	Churn int `json:"churn"`
	// PrunedCandidates counts stage-1 rare-candidate prunes.
	PrunedCandidates int `json:"pruned_candidates,omitempty"`
	// Matches carries per-returned-match quality, aligned with
	// Result.TopK.
	Matches []CandidateQuality `json:"matches,omitempty"`
	// Termination classifies how the run ended: "guarantee" (stages ran
	// to completion, so Guarantees 1 and 2 hold at the configured ε, δ),
	// "exact" (data exhausted; the answer is exact, strictly stronger),
	// or "truncated" (deadline/budget/cancellation cut the run short; no
	// guarantee attaches).
	Termination string `json:"termination"`
	// GuaranteeMet reports that the probabilistic contract was
	// established (true for "guarantee" and "exact", false for
	// "truncated").
	GuaranteeMet bool `json:"guarantee_met"`
	// Truncated mirrors Termination == "truncated" for callers branching
	// on the flag alone.
	Truncated bool `json:"truncated,omitempty"`
}

// Quality termination classifications.
const (
	TerminationGuarantee = "guarantee"
	TerminationExact     = "exact"
	TerminationTruncated = "truncated"
)

// ciDiameter caps CandidateQuality.CI: every supported metric is bounded
// by 2, and Metric.Deviation returns +Inf for zero-sample candidates,
// which must not leak into JSON-encoded reports.
const ciDiameter = 2

// candQuality builds the per-candidate quality entry from the cumulative
// state.
func (st *state) candQuality(rk histogram.Ranked) CandidateQuality {
	ci := st.params.Metric.Deviation(st.groups, int(st.n[rk.ID]), st.params.Delta)
	if ci > ciDiameter {
		ci = ciDiameter
	}
	unseen := 0
	h := st.r[rk.ID]
	for g := 0; g < h.Groups(); g++ {
		if h.Count(g) == 0 {
			unseen++
		}
	}
	return CandidateQuality{
		ID:           rk.ID,
		Distance:     rk.Distance,
		CI:           ci,
		Samples:      st.n[rk.ID],
		UnseenGroups: unseen,
	}
}

// gapAt returns the observed margin τ_(k+1) − τ_(k) over the ranked
// observed candidates (see gapAfter).
func (st *state) gapAt(k int) float64 {
	active := st.a
	if active == nil {
		active = allCandidates(st.nCand)
	}
	return gapAfter(histogram.TopK(st.tau, st.observed(active), len(active)), k)
}

// gapAfter returns the margin τ_(k+1) − τ_(k) of a ranking, or 0 when
// fewer than k+1 are ranked (everything observed is in the matching set:
// the separation hypotheses are vacuous).
func gapAfter(ranked []histogram.Ranked, k int) float64 {
	if k <= 0 || k >= len(ranked) {
		return 0
	}
	return ranked[k].Distance - ranked[k-1].Distance
}

// buildQuality assembles the final report after finalize() has re-ranked
// the answer (st.tau is fresh).
func (st *state) buildQuality(truncated bool) *Quality {
	q := &Quality{
		Rounds:           st.res.Stats.Rounds,
		PrunedCandidates: st.res.Stats.PrunedCandidates,
		Churn:            st.qChurn,
		Truncated:        truncated,
	}
	switch {
	case truncated:
		q.Termination = TerminationTruncated
	case st.res.Exact:
		q.Termination = TerminationExact
	default:
		q.Termination = TerminationGuarantee
	}
	q.GuaranteeMet = !truncated
	q.FinalGap = st.gapAt(len(st.res.TopK))
	q.FinalSlack = q.FinalGap - st.params.epsSeparation()
	q.Matches = make([]CandidateQuality, len(st.res.TopK))
	for i, rk := range st.res.TopK {
		q.Matches[i] = st.candQuality(rk)
	}
	return q
}
