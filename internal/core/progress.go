package core

import (
	"errors"

	"fastmatch/internal/histogram"
)

// ErrInterrupted is the sentinel a Sampler wraps to signal a clean early
// stop: the run should not continue, but the samples delivered so far are
// valid uniform draws, so HistSim can still rank candidates from its
// cumulative estimates. A sampler reporting an interruption returns the
// batch it accumulated up to the stop point together with an error
// matching this sentinel (errors.Is); Run then folds that batch in and
// returns a best-effort partial Result alongside the error. Callers
// distinguish the stop's cause (cancellation, deadline, budget) from the
// other errors wrapped in the same chain.
var ErrInterrupted = errors.New("core: run interrupted")

// Snapshot is the one record of an emission: after stage 1, after every
// stage-2 round and after stage 3, Run reports through its Observer where
// the algorithm is, how much it has consumed, its current best ranking
// and how that ranking is converging. The engine renders every interim
// view of a run — progress frames and trace phase spans alike — from
// these records. The estimates carry no guarantee until the run
// terminates.
type Snapshot struct {
	// Phase is "stage1", "stage2", or "stage3".
	Phase string
	// Round is the stage-2 round just completed (0 outside stage 2).
	Round int
	// TopK is the current best-k by cumulative estimated distance,
	// ascending, each entry with its confidence interval and evidence.
	TopK []CandidateQuality
	// ActiveCandidates and PrunedCandidates count the survivors of and
	// casualties to stage-1 pruning.
	ActiveCandidates int
	PrunedCandidates int
	// Drawn is the cumulative tuples consumed so far.
	Drawn int64
	// Gap is the observed separation margin τ_(k+1) − τ_(k) over the
	// ranked observed candidates (0 when fewer than k+1 are ranked).
	Gap float64
	// Slack is Gap − ε₁: the distance of the observed margin from the
	// separation threshold. Positive slack means the current ranking
	// separates by more than the guarantee demands; persistent negative
	// slack predicts more rounds.
	Slack float64
	// Churn counts current top-k members absent from the previous
	// emission's top-k (0 on the first emission).
	Churn int
}

// Observer receives interim snapshots during a run. It is called
// synchronously from the run's goroutine after stage 1, after every
// stage-2 round, and after stage 3's top-up — so implementations must be
// fast and must not block. A nil Observer costs nothing.
type Observer func(Snapshot)

// emit advances the churn accumulators and reports the current state to
// the observer, if any. The interim ranking covers only observed
// candidates, for the same reason salvage does: an empty estimate reads
// as uniform, not as unknown.
func (st *state) emit(phase string, round int) {
	st.refreshTau()
	active := st.a
	if active == nil {
		active = allCandidates(st.nCand)
	}
	k := st.params.K
	if st.params.KRange.KMax > 0 {
		k = st.params.KRange.KMax
	}
	// One ranking serves both the top-k and the margin after it.
	ranked := histogram.TopK(st.tau, st.observed(active), k+1)
	top := ranked[:min(k, len(ranked))]
	// Churn advances with no observer attached too, so the final report's
	// total doesn't depend on who was listening.
	churn := 0
	cur := make(map[int]bool, len(top))
	for _, rk := range top {
		cur[rk.ID] = true
		if st.prevTop != nil && !st.prevTop[rk.ID] {
			churn++
		}
	}
	st.prevTop = cur
	st.qChurn += churn
	if st.obs == nil {
		return
	}
	s := Snapshot{
		Phase:            phase,
		Round:            round,
		TopK:             make([]CandidateQuality, len(top)),
		ActiveCandidates: len(active),
		PrunedCandidates: st.res.Stats.PrunedCandidates,
		Drawn:            st.drawn,
		Gap:              gapAfter(ranked, len(top)),
		Churn:            churn,
	}
	s.Slack = s.Gap - st.params.epsSeparation()
	for i, rk := range top {
		s.TopK[i] = st.candQuality(rk)
	}
	st.obs(s)
}

// salvage builds the best-effort partial answer after an interruption
// (the stages have already folded the interrupted batch in): the current
// top-k by cumulative estimated distance, flagged Partial. A matching set
// already fixed by stage 2 is kept (only its reconstruction guarantee is
// missing); otherwise the top-k is chosen fresh from the candidates that
// were actually observed — a zero-sample candidate's empty estimate
// normalizes to the uniform distribution, which would rank never-seen
// candidates as perfect matches for uniform-like targets. An
// interruption before any sample lands returns an empty TopK. The
// interrupting error is returned unchanged so callers can branch on its
// cause.
func (st *state) salvage(cause error) (*Result, error) {
	if st.a == nil {
		// Interrupted before stage 1 chose the active set.
		st.a = allCandidates(st.nCand)
	}
	st.res.Partial = true
	st.refreshTau()
	if len(st.res.TopK) == 0 {
		obs := st.observed(st.a)
		k := st.chooseK()
		if len(obs) < k {
			k = len(obs)
		}
		st.setTopK(obs, k)
	}
	st.finalize()
	st.res.Quality = st.buildQuality(true)
	return st.res, cause
}

// observed filters ids down to candidates with at least one sample.
func (st *state) observed(ids []int) []int {
	out := make([]int, 0, len(ids))
	for _, i := range ids {
		if st.n[i] > 0 {
			out = append(out, i)
		}
	}
	return out
}

func allCandidates(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}
