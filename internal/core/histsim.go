package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fastmatch/internal/histogram"
	"fastmatch/internal/stats"
)

// Result is HistSim's output: the matching set M with its reconstructed
// histograms, plus run diagnostics.
type Result struct {
	// TopK lists the matching candidates in ascending estimated distance.
	TopK []histogram.Ranked
	// Hists maps each matching candidate to its reconstructed histogram
	// (cumulative counts over all samples taken).
	Hists map[int]*histogram.Histogram
	// Pruned lists candidates removed by stage 1 as likely rare.
	Pruned []int
	// Exact reports that the data was fully consumed, so the output is
	// the exact answer rather than an estimate.
	Exact bool
	// Partial reports that the run was interrupted (see ErrInterrupted)
	// before its guarantees were established: TopK is the best-effort
	// ranking by the cumulative estimates at the stop point, with no
	// separation or reconstruction guarantee attached.
	Partial bool
	// Stats carries run diagnostics.
	Stats RunStats
	// Quality is the answer-quality report. Every run that returns a
	// Result carries one.
	Quality *Quality
}

// RunStats summarizes the work a HistSim run performed.
type RunStats struct {
	// SamplesStage1/2/3 count tuples consumed per stage.
	SamplesStage1, SamplesStage2, SamplesStage3 int64
	// Rounds is the number of stage-2 hypothesis-testing rounds.
	Rounds int
	// PrunedCandidates is the number removed in stage 1.
	PrunedCandidates int
	// ChosenK is the k actually returned (differs from Params.K only
	// under a KRange query).
	ChosenK int
}

// TotalSamples returns the tuples consumed across all stages.
func (s RunStats) TotalSamples() int64 {
	return s.SamplesStage1 + s.SamplesStage2 + s.SamplesStage3
}

// state carries the mutable cumulative quantities of Algorithm 1.
type state struct {
	sampler Sampler
	target  *histogram.Histogram
	params  Params
	obs     Observer

	nCand  int
	groups int

	n     []int64                // cumulative n_i
	r     []*histogram.Histogram // cumulative r_i
	tau   []float64              // τ_i = d(r_i, q)
	a     []int                  // non-pruned candidate ids, sorted
	drawn int64                  // cumulative tuples drawn (for sel estimates)
	res   *Result
	need  map[int]int // reusable need map

	// Quality-telemetry accumulators.
	prevTop map[int]bool // previous emission's top-k membership
	qChurn  int          // total churn across emissions
}

// Run executes HistSim against the sampler for the given visual target.
// The target histogram's group count must equal sampler.Groups().
func Run(s Sampler, target *histogram.Histogram, p Params) (*Result, error) {
	return RunObserved(s, target, p, nil)
}

// RunObserved is Run with an optional progress Observer, called after
// stage 1, after every stage-2 round, and after stage 3's top-up.
//
// If the sampler interrupts the run (an error matching ErrInterrupted —
// samplers do this for cancellation, deadlines, and sample budgets),
// RunObserved returns a best-effort partial Result (Partial set, TopK
// ranked by the cumulative estimates at the stop point) alongside that
// error; every other sampler error returns a nil Result as before.
func RunObserved(s Sampler, target *histogram.Histogram, p Params, obs Observer) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if target == nil {
		return nil, fmt.Errorf("core: nil target")
	}
	if target.Groups() != s.Groups() {
		return nil, fmt.Errorf("core: target has %d groups, sampler has %d", target.Groups(), s.Groups())
	}
	if s.NumCandidates() == 0 {
		return nil, fmt.Errorf("core: sampler has no candidates")
	}
	st := &state{
		sampler: s,
		target:  target,
		params:  p,
		obs:     obs,
		nCand:   s.NumCandidates(),
		groups:  s.Groups(),
		need:    make(map[int]int),
		res:     &Result{Hists: make(map[int]*histogram.Histogram)},
	}
	st.n = make([]int64, st.nCand)
	st.r = make([]*histogram.Histogram, st.nCand)
	st.tau = make([]float64, st.nCand)
	for i := range st.r {
		st.r[i] = histogram.New(st.groups)
	}

	exhausted, err := st.stage1()
	if err != nil {
		if errors.Is(err, ErrInterrupted) {
			return st.salvage(err)
		}
		return nil, err
	}
	st.emit("stage1", 0)
	if !exhausted {
		exhausted, err = st.stage2()
		if err != nil {
			if errors.Is(err, ErrInterrupted) {
				return st.salvage(err)
			}
			return nil, err
		}
	}
	if exhausted {
		st.finishExact()
		st.res.Quality = st.buildQuality(false)
		return st.res, nil
	}
	if err := st.stage3(); err != nil {
		if errors.Is(err, ErrInterrupted) {
			return st.salvage(err)
		}
		return nil, err
	}
	st.emit("stage3", 0)
	st.res.Quality = st.buildQuality(false)
	return st.res, nil
}

// stage1 draws the m-sample uniform batch and prunes candidates that are
// rare (N_i/N < σ) with family-wise confidence δ/3, per §3.3. It returns
// whether the data was exhausted.
func (st *state) stage1() (bool, error) {
	m := st.params.Stage1Samples
	all := make([]int, st.nCand)
	for i := range all {
		all[i] = i
	}
	if m <= 0 || st.params.Sigma == 0 {
		// No pruning requested: A = all candidates. (σ=0 is the
		// pathological configuration studied in §5.4.)
		st.a = all
		return false, nil
	}
	batch, err := st.sampler.Stage1(m)
	if err != nil {
		// An interrupting sampler still returns the samples it drew;
		// fold them in so the salvaged partial answer uses them.
		if errors.Is(err, ErrInterrupted) && batch != nil {
			st.accumulate(batch, &st.res.Stats.SamplesStage1)
		}
		return false, fmt.Errorf("core: stage 1 sampling: %w", err)
	}
	st.accumulate(batch, &st.res.Stats.SamplesStage1)

	drawn := batch.Drawn
	if drawn == 0 {
		drawn = sumCounts(batch)
	}
	pvals, err := stats.UnderRepPValues(st.n, st.sampler.TotalRows(), st.params.Sigma, min64(int64(m), drawn))
	if err != nil {
		return false, fmt.Errorf("core: stage 1 test: %w", err)
	}
	rejected := stats.HolmBonferroni(pvals, st.params.Delta/3)
	pruned := make(map[int]bool, len(rejected))
	for _, i := range rejected {
		pruned[i] = true
		st.res.Pruned = append(st.res.Pruned, i)
	}
	sort.Ints(st.res.Pruned)
	st.res.Stats.PrunedCandidates = len(st.res.Pruned)
	st.a = st.a[:0]
	for i := 0; i < st.nCand; i++ {
		if !pruned[i] {
			st.a = append(st.a, i)
		}
	}
	if len(st.a) == 0 {
		// Everything looked rare (e.g. σ absurdly high). Keep all
		// candidates rather than returning an empty answer: the separation
		// guarantee permits returning low-selectivity candidates, it only
		// excuses missing them.
		st.a = all
		st.res.Pruned = nil
		st.res.Stats.PrunedCandidates = 0
	}
	return batch.Exhausted, nil
}

// stage2 runs rounds of fresh-sample multiple-hypothesis tests until the
// matching set M is correct w.r.t. Guarantee 1 with confidence δ/3
// (§3.4). It returns whether the data was exhausted before termination.
func (st *state) stage2() (bool, error) {
	budget, err := stats.NewGeometricBudget(st.params.Delta / 3)
	if err != nil {
		return false, err
	}
	eps1 := st.params.epsSeparation()

	for round := 1; ; round++ {
		if round > st.params.maxRounds() {
			return false, fmt.Errorf("core: stage 2 did not terminate within %d rounds", st.params.maxRounds())
		}
		st.res.Stats.Rounds = round
		deltaUpper := budget.Next()

		st.refreshTau()
		k := st.chooseK()
		if len(st.a) <= k {
			// Everything that survived pruning is matching; the
			// separation hypotheses over A\M are vacuous.
			st.setTopK(st.a, k)
			return false, nil
		}
		mSet, rest := st.partition(k)
		split := histogram.SplitPoint(st.tauOf(mSet), st.tauOf(rest))

		// Per-candidate sample demand for this round (Equation 1), using
		// the heuristic ε'_i from the current cumulative estimates. By
		// construction of the split point, ε'_i ≥ ε/2 for every candidate.
		st.planRound(mSet, rest, split, eps1, deltaUpper)
		batch, err := st.sampler.SampleUntil(st.need)
		if err != nil {
			if errors.Is(err, ErrInterrupted) && batch != nil {
				st.accumulate(batch, &st.res.Stats.SamplesStage2)
			}
			return false, fmt.Errorf("core: stage 2 sampling: %w", err)
		}

		if st.testRound(batch, mSet, rest, split, eps1, deltaUpper) {
			st.accumulate(batch, &st.res.Stats.SamplesStage2)
			st.refreshTau()
			st.setTopK(mSet, k)
			st.emit("stage2", round)
			return false, nil
		}
		st.accumulate(batch, &st.res.Stats.SamplesStage2)
		st.emit("stage2", round)
		if batch.Exhausted {
			return true, nil
		}
	}
}

// planRound fills st.need with the Equation-(1) estimates n'_i.
func (st *state) planRound(mSet, rest []int, split, eps1, deltaUpper float64) {
	clear(st.need)
	metric := st.params.Metric
	for _, i := range mSet {
		// In-M nulls are hurt by the plug-in estimator's upward bias
		// (τ∂ overshoots τ*), so plan with the bias-corrected count.
		epsP := split + eps1/2 - st.tau[i]
		st.need[i] = metric.PlanSamples(st.groups, epsP, deltaUpper)
	}
	for _, j := range rest {
		// Rest-side nulls benefit from the same bias (τ∂ overshooting
		// only widens the observed margin), so the paper's Equation (1)
		// is already sufficient.
		epsP := st.tau[j] - (split - eps1/2)
		st.need[j] = metric.SamplesFor(st.groups, epsP, deltaUpper)
	}
}

// testRound computes the per-candidate P-values from the fresh batch and
// applies the Lemma-4 simultaneous tester at level deltaUpper.
func (st *state) testRound(batch *Batch, mSet, rest []int, split, eps1, deltaUpper float64) bool {
	metric := st.params.Metric
	pvals := make([]float64, 0, len(mSet)+len(rest))
	for _, i := range mSet {
		if batch.IsExact(i) {
			// τ_i = τ*_i exactly: decide the null τ*_i ≥ s + ε/2 for free.
			pvals = append(pvals, exactPValue(st.cumTauWith(batch, i) < split+eps1/2))
			continue
		}
		tauRound := st.roundTau(batch, i)
		epsI := split + eps1/2 - tauRound
		pvals = append(pvals, metric.DeviationPValue(st.groups, int(batch.Counts[i]), epsI))
	}
	lowNull := split - eps1/2
	for _, j := range rest {
		if batch.IsExact(j) {
			pvals = append(pvals, exactPValue(st.cumTauWith(batch, j) > lowNull))
			continue
		}
		tauRound := st.roundTau(batch, j)
		epsJ := tauRound - lowNull
		if lowNull < 0 {
			// The null τ*_j ≤ s − ε/2 < 0 is impossible for a distance:
			// reject it for free (line 22 of Algorithm 1).
			epsJ = math.Inf(1)
		}
		pvals = append(pvals, metric.DeviationPValue(st.groups, int(batch.Counts[j]), epsJ))
	}
	return stats.RejectAll(pvals, deltaUpper)
}

// cumTauWith computes the exact distance for a candidate flagged exact:
// cumulative counts plus the (not yet accumulated) fresh batch.
func (st *state) cumTauWith(batch *Batch, i int) float64 {
	h := st.r[i].Clone()
	if bh := batch.Hists[i]; bh != nil {
		if err := h.AddHistogram(bh); err != nil {
			panic(fmt.Sprintf("core: sampler returned mismatched histogram: %v", err))
		}
	}
	return st.params.Metric.Distance(h, st.target)
}

// exactPValue turns a deterministically-known null verdict into a P-value:
// a false null is rejected for free (0), a true null cannot be rejected (1).
func exactPValue(nullFalse bool) float64 {
	if nullFalse {
		return 0
	}
	return 1
}

// roundTau computes τ∂_i from the fresh batch only.
func (st *state) roundTau(batch *Batch, i int) float64 {
	h := batch.Hists[i]
	if h == nil || batch.Counts[i] == 0 {
		// No fresh samples: distance estimate is vacuous (uniform), which
		// yields a conservative (large) P-value.
		h = histogram.New(st.groups)
	}
	return st.params.Metric.Distance(h, st.target)
}

// stage3 tops up samples for the matching set until each member meets the
// Theorem-1 reconstruction requirement at level δ/(3k), per §3.5.
func (st *state) stage3() error {
	eps2 := st.params.epsReconstruct()
	k := len(st.res.TopK)
	if k == 0 {
		return nil
	}
	required := st.params.Metric.SamplesFor(st.groups, eps2, st.params.Delta/(3*float64(k)))
	clear(st.need)
	for _, rk := range st.res.TopK {
		if deficit := required - int(st.n[rk.ID]); deficit > 0 {
			st.need[rk.ID] = deficit
		}
	}
	if len(st.need) > 0 {
		batch, err := st.sampler.SampleUntil(st.need)
		if err != nil {
			if errors.Is(err, ErrInterrupted) && batch != nil {
				st.accumulate(batch, &st.res.Stats.SamplesStage3)
			}
			return fmt.Errorf("core: stage 3 sampling: %w", err)
		}
		st.accumulate(batch, &st.res.Stats.SamplesStage3)
		if batch.Exhausted {
			st.res.Exact = true
		}
	}
	st.refreshTau()
	st.finalize()
	return nil
}

// finishExact recomputes the answer from the fully-consumed data.
func (st *state) finishExact() {
	st.res.Exact = true
	st.refreshTau()
	k := st.chooseK()
	if len(st.a) < k {
		k = len(st.a)
	}
	st.setTopK(st.a, k)
	st.finalize()
}

// setTopK records the top-k of the given candidate set by current τ.
func (st *state) setTopK(from []int, k int) {
	st.res.TopK = histogram.TopK(st.tau, from, k)
	st.res.Stats.ChosenK = len(st.res.TopK)
}

// finalize re-ranks the recorded matching set by the freshest cumulative
// distances and snapshots their histograms.
func (st *state) finalize() {
	ids := make([]int, len(st.res.TopK))
	for i, rk := range st.res.TopK {
		ids[i] = rk.ID
	}
	st.res.TopK = histogram.TopK(st.tau, ids, len(ids))
	for _, rk := range st.res.TopK {
		st.res.Hists[rk.ID] = st.r[rk.ID].Clone()
	}
}

// accumulate folds a fresh batch into the cumulative estimates.
func (st *state) accumulate(batch *Batch, counter *int64) {
	if batch.Drawn > 0 {
		st.drawn += batch.Drawn
	} else {
		st.drawn += sumCounts(batch)
	}
	for i, c := range batch.Counts {
		if c == 0 {
			continue
		}
		st.n[i] += c
		*counter += c
		if h := batch.Hists[i]; h != nil {
			// Group counts are aligned by construction; an error here
			// would indicate a broken sampler.
			if err := st.r[i].AddHistogram(h); err != nil {
				panic(fmt.Sprintf("core: sampler returned mismatched histogram: %v", err))
			}
		}
	}
}

// refreshTau recomputes τ_i for all non-pruned candidates.
func (st *state) refreshTau() {
	for _, i := range st.a {
		st.tau[i] = st.params.Metric.Distance(st.r[i], st.target)
	}
}

// partition splits A into the current matching set (top-k by τ) and the
// rest.
func (st *state) partition(k int) (mSet, rest []int) {
	ranked := histogram.TopK(st.tau, st.a, len(st.a))
	mSet = make([]int, 0, k)
	rest = make([]int, 0, len(ranked)-k)
	for idx, rk := range ranked {
		if idx < k {
			mSet = append(mSet, rk.ID)
		} else {
			rest = append(rest, rk.ID)
		}
	}
	return mSet, rest
}

// chooseK returns the k to use this round. For fixed-k queries it is
// Params.K. For KRange queries it picks the k in [KMin, KMax] with the
// widest gap τ_(k+1) − τ_(k), which makes the separation hypotheses as
// easy as possible to reject (Appendix A.2.3).
func (st *state) chooseK() int {
	kr := st.params.KRange
	if kr.KMax <= 0 {
		return st.params.K
	}
	ranked := histogram.TopK(st.tau, st.a, len(st.a))
	bestK, bestGap := kr.KMin, math.Inf(-1)
	for k := kr.KMin; k <= kr.KMax && k < len(ranked); k++ {
		gap := ranked[k].Distance - ranked[k-1].Distance
		if gap > bestGap {
			bestGap = gap
			bestK = k
		}
	}
	if kr.KMax >= len(ranked) && len(ranked) >= kr.KMin {
		// Taking everything ranked is free of separation hypotheses.
		return min(kr.KMax, len(ranked))
	}
	return bestK
}

// tauOf gathers the τ values of the given candidates.
func (st *state) tauOf(ids []int) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = st.tau[id]
	}
	return out
}

func sumCounts(b *Batch) int64 {
	var s int64
	for _, c := range b.Counts {
		s += c
	}
	return s
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
