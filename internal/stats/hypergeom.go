// Package stats implements the statistical substrate HistSim depends on:
// hypergeometric distributions (stage-1 rarity testing), the
// Holm-Bonferroni multiple-testing procedure, the union-intersection
// simultaneous tester of Lemma 4, and assorted concentration-bound helpers.
//
// The paper uses Boost's hypergeometric implementation; here everything is
// built on math.Lgamma so the module stays stdlib-only.
package stats

import (
	"fmt"
	"math"
)

// LogBinomial returns ln C(n, k) computed via log-gamma, or -Inf when the
// coefficient is zero (k < 0 or k > n).
func LogBinomial(n, k int64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk1, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk1 - lnk
}

// Hypergeometric is the distribution of the number of "successes" in m
// draws without replacement from a population of size N containing K
// successes: the stage-1 sampling model for the per-candidate tuple counts
// (n_i ~ HypGeo(N, N_i, m)).
type Hypergeometric struct {
	N int64 // population size
	K int64 // number of success states in the population
	M int64 // number of draws
}

// NewHypergeometric validates the parameters and returns the distribution.
func NewHypergeometric(n, k, m int64) (Hypergeometric, error) {
	if n < 0 || k < 0 || m < 0 || k > n || m > n {
		return Hypergeometric{}, fmt.Errorf("stats: invalid hypergeometric parameters N=%d K=%d m=%d", n, k, m)
	}
	return Hypergeometric{N: n, K: k, M: m}, nil
}

// Support returns the inclusive range [lo, hi] of outcomes with nonzero
// probability: max(0, m−(N−K)) ≤ j ≤ min(K, m).
func (h Hypergeometric) Support() (lo, hi int64) {
	lo = h.M - (h.N - h.K)
	if lo < 0 {
		lo = 0
	}
	hi = h.K
	if h.M < hi {
		hi = h.M
	}
	return lo, hi
}

// LogPMF returns ln f(j; N, K, m).
func (h Hypergeometric) LogPMF(j int64) float64 {
	lo, hi := h.Support()
	if j < lo || j > hi {
		return math.Inf(-1)
	}
	return LogBinomial(h.K, j) + LogBinomial(h.N-h.K, h.M-j) - LogBinomial(h.N, h.M)
}

// PMF returns f(j; N, K, m).
func (h Hypergeometric) PMF(j int64) float64 {
	return math.Exp(h.LogPMF(j))
}

// CDF returns P(X ≤ j) = Σ_{i≤j} f(i), the stage-1 under-representation
// P-value when j is the observed per-candidate sample count.
//
// It sums whichever tail lies away from the mode: P(X ≤ j) itself when
// j is at or below the mode, else 1 − P(X ≥ j+1). The walk starts at
// the term nearest the mode and moves outward, so terms only shrink and
// it stops once they no longer change the sum; every term is taken
// relative to the first through the recurrence
// f(i+1)/f(i) = (K−i)(m−i) / ((i+1)(N−K−m+i+1)), and the first term
// itself is applied in log space. Nothing is seeded with a PMF value
// that can underflow: f(lo) is 0.0 in float64 once σ·m ≳ 745, and a sum
// built up from it stays 0 however large the true CDF is.
func (h Hypergeometric) CDF(j int64) float64 {
	lo, hi := h.Support()
	if j < lo {
		return 0
	}
	if j >= hi {
		return 1
	}
	if j <= h.mode() {
		sum, r := 1.0, 1.0
		for i := j; i > lo && r > sum*1e-17; i-- {
			r /= h.ratio(i - 1)
			sum += r
		}
		return math.Min(1, math.Exp(h.LogPMF(j)+math.Log(sum)))
	}
	// P(X ≤ j) = 1 − P(X ≥ j+1), the upper tail walked up from j+1.
	sum, r := 1.0, 1.0
	for i := j + 1; i < hi && r > sum*1e-17; i++ {
		r *= h.ratio(i)
		sum += r
	}
	return math.Max(0, 1-math.Exp(h.LogPMF(j+1)+math.Log(sum)))
}

// ratio returns f(i+1)/f(i) for lo ≤ i < hi, where it is positive and
// finite.
func (h Hypergeometric) ratio(i int64) float64 {
	return float64(h.K-i) * float64(h.M-i) / (float64(i+1) * float64(h.N-h.K-h.M+i+1))
}

// mode returns the most likely outcome, ⌊(m+1)(K+1)/(N+2)⌋, clamped
// into the support.
func (h Hypergeometric) mode() int64 {
	lo, hi := h.Support()
	md := int64(float64(h.M+1) * float64(h.K+1) / float64(h.N+2))
	return max(lo, min(md, hi))
}

// Mean returns E[X] = mK/N.
func (h Hypergeometric) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.M) * float64(h.K) / float64(h.N)
}

// Variance returns Var[X] = m (K/N)(1−K/N)(N−m)/(N−1).
func (h Hypergeometric) Variance() float64 {
	if h.N <= 1 {
		return 0
	}
	p := float64(h.K) / float64(h.N)
	fpc := float64(h.N-h.M) / float64(h.N-1)
	return float64(h.M) * p * (1 - p) * fpc
}

// UnderRepPValues computes stage-1 P-values for a batch of candidates in
// O(max_i n_i) hypergeometric term evaluations total (plus a pass over the
// candidates), matching the computation-sharing described in the paper's
// complexity discussion. For each candidate with observed count counts[i]
// it returns
//
//	δ_i = Σ_{j=0}^{counts[i]} f(j; N, ceil(σN), m)
//
// — the probability, under the null "candidate i is not rare"
// (N_i ≥ ⌈σN⌉), of seeing so few of its tuples in the size-m stage-1
// sample. Low δ_i means candidate i is very likely rare.
func UnderRepPValues(counts []int64, totalN int64, sigma float64, m int64) ([]float64, error) {
	if sigma < 0 || sigma > 1 {
		return nil, fmt.Errorf("stats: sigma %g out of [0,1]", sigma)
	}
	k := int64(math.Ceil(sigma * float64(totalN)))
	if k > totalN {
		k = totalN
	}
	h, err := NewHypergeometric(totalN, k, m)
	if err != nil {
		return nil, err
	}
	var maxCount int64
	for _, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("stats: negative count %d", c)
		}
		if c > maxCount {
			maxCount = c
		}
	}
	lo, hi := h.Support()
	if maxCount > hi {
		maxCount = hi
	}
	// Prefix CDF table over [0, maxCount] shared by all candidates (0
	// below the support). The PMF is built relative to its largest value
	// on [lo, maxCount] — at the mode, or at maxCount when that lies below
	// it — walking outward with the term recurrence, so no ratio can
	// overflow and those that underflow are negligible next to the
	// pivot. The pivot's own PMF is applied in log space: seeding the
	// walk with f(0) instead underflows to 0 once σ·m ≳ 745, zeroing
	// every P-value.
	table := make([]float64, maxCount+1)
	if maxCount >= lo {
		pivot := min(h.mode(), maxCount)
		table[pivot] = 1
		for i := pivot; i > lo; i-- {
			table[i-1] = table[i] / h.ratio(i-1)
		}
		for i := pivot; i < maxCount; i++ {
			table[i+1] = table[i] * h.ratio(i)
		}
		logScale := h.LogPMF(pivot)
		scale := math.Exp(logScale)
		sum := 0.0
		for j := lo; j <= maxCount; j++ {
			sum += table[j]
			p := sum * scale
			if logScale < -700 {
				// scale is at the edge of float64 underflow: take the product
				// in log space.
				p = math.Exp(logScale + math.Log(sum))
			}
			table[j] = math.Min(p, 1)
		}
	}
	out := make([]float64, len(counts))
	for i, c := range counts {
		if c >= int64(len(table)) {
			out[i] = 1 // at or beyond the clamp ⇒ CDF is (effectively) 1
			continue
		}
		out[i] = table[c]
	}
	return out, nil
}
