// Package expt is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 5) against the synthetic
// datasets: Table 4 (speedups), Figures 8/9 (ε sweeps), Figure 10
// (lookahead sweep), Figure 11 (δ sweep), Table 5 (L1 vs L2), the
// guarantee-violation count, and the σ=0 pathology.
package expt

import "fastmatch/internal/histogram"

// TargetKind selects how a query's visual target is chosen, mirroring
// Table 3.
type TargetKind int

const (
	// TargetTopCandidate uses the highest-selectivity candidate's exact
	// histogram (the "Chicago ORD" pattern of FLIGHTS-q1).
	TargetTopCandidate TargetKind = iota
	// TargetRareCandidate uses a low-selectivity (but non-prunable)
	// candidate's histogram (the "Appleton ATW" pattern of FLIGHTS-q2).
	TargetRareCandidate
	// TargetExplicit uses an explicit distribution (FLIGHTS-q3's
	// [0.25, 0.125 × 6]).
	TargetExplicit
	// TargetNearUniform uses the exact histogram of the candidate closest
	// to uniform (the default for q4 and the TAXI/POLICE queries).
	TargetNearUniform
)

// QuerySpec mirrors one row of Table 3.
type QuerySpec struct {
	// ID is the paper's query name, e.g. "flights-q1".
	ID string
	// Dataset is "flights", "taxi", or "police".
	Dataset string
	// Z and X are the candidate and grouping attributes.
	Z, X string
	// K is the number of matches to retrieve.
	K int
	// Target selects the target construction.
	Target TargetKind
	// ExplicitTarget holds the distribution for TargetExplicit.
	ExplicitTarget []float64
}

// Queries lists the paper's nine evaluation queries (Table 3) with their
// exact templates and k values. Targets that referenced specific airports
// are mapped to the structurally equivalent choice on synthetic data
// (highest-selectivity candidate for ORD, a rare candidate for ATW).
var Queries = []QuerySpec{
	{ID: "flights-q1", Dataset: "flights", Z: "Origin", X: "DepartureHour", K: 10, Target: TargetTopCandidate},
	{ID: "flights-q2", Dataset: "flights", Z: "Origin", X: "DepartureHour", K: 10, Target: TargetRareCandidate},
	{ID: "flights-q3", Dataset: "flights", Z: "Origin", X: "DayOfWeek", K: 5, Target: TargetExplicit,
		ExplicitTarget: []float64{0.25, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125}},
	{ID: "flights-q4", Dataset: "flights", Z: "Origin", X: "Dest", K: 10, Target: TargetNearUniform},
	{ID: "taxi-q1", Dataset: "taxi", Z: "Location", X: "HourOfDay", K: 10, Target: TargetNearUniform},
	{ID: "taxi-q2", Dataset: "taxi", Z: "Location", X: "MonthOfYear", K: 10, Target: TargetNearUniform},
	{ID: "police-q1", Dataset: "police", Z: "RoadID", X: "ContrabandFound", K: 10, Target: TargetNearUniform},
	{ID: "police-q2", Dataset: "police", Z: "RoadID", X: "OfficerRace", K: 10, Target: TargetNearUniform},
	{ID: "police-q3", Dataset: "police", Z: "Violation", X: "DriverGender", K: 5, Target: TargetNearUniform},
}

// uniformTarget builds the uniform histogram over n groups.
func uniformTarget(n int) *histogram.Histogram {
	counts := make([]float64, n)
	for i := range counts {
		counts[i] = 1
	}
	return histogram.FromCounts(counts)
}
