package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLogBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int64
		want float64
	}{
		{5, 2, math.Log(10)},
		{10, 0, 0},
		{10, 10, 0},
		{6, 3, math.Log(20)},
		{52, 5, math.Log(2598960)},
	}
	for _, c := range cases {
		got := LogBinomial(c.n, c.k)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("LogBinomial(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestLogBinomialOutOfRange(t *testing.T) {
	if !math.IsInf(LogBinomial(5, -1), -1) || !math.IsInf(LogBinomial(5, 6), -1) {
		t.Fatal("out-of-range binomial should be -Inf")
	}
}

// Property: Pascal's rule C(n,k) = C(n-1,k-1) + C(n-1,k) in log space.
func TestLogBinomialPascalProperty(t *testing.T) {
	f := func(n8, k8 uint8) bool {
		n := int64(n8%60) + 2
		k := int64(k8) % n
		if k == 0 {
			k = 1
		}
		lhs := math.Exp(LogBinomial(n, k))
		rhs := math.Exp(LogBinomial(n-1, k-1)) + math.Exp(LogBinomial(n-1, k))
		return math.Abs(lhs-rhs) <= 1e-6*lhs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNewHypergeometricValidation(t *testing.T) {
	for _, bad := range [][3]int64{{-1, 0, 0}, {5, 6, 2}, {5, 2, 6}, {5, -1, 2}, {5, 2, -1}} {
		if _, err := NewHypergeometric(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("NewHypergeometric(%v) accepted invalid params", bad)
		}
	}
	if _, err := NewHypergeometric(10, 3, 4); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestHypergeometricPMFKnown(t *testing.T) {
	// Classic: drawing 2 aces in a 5-card hand from a 52-card deck.
	h, _ := NewHypergeometric(52, 4, 5)
	want := float64(6) * 17296 / 2598960 // C(4,2)*C(48,3)/C(52,5)
	if got := h.PMF(2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PMF(2) = %g, want %g", got, want)
	}
}

func TestHypergeometricSupport(t *testing.T) {
	h, _ := NewHypergeometric(10, 7, 6)
	lo, hi := h.Support()
	if lo != 3 || hi != 6 {
		t.Fatalf("Support = [%d,%d], want [3,6]", lo, hi)
	}
	if h.PMF(2) != 0 || h.PMF(7) != 0 {
		t.Fatal("PMF outside support should be 0")
	}
}

// Property: the pmf sums to 1 over its support.
func TestHypergeometricPMFSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(rng.Intn(200) + 1)
		k := int64(rng.Intn(int(n) + 1))
		m := int64(rng.Intn(int(n) + 1))
		h, err := NewHypergeometric(n, k, m)
		if err != nil {
			return false
		}
		lo, hi := h.Support()
		var sum float64
		for j := lo; j <= hi; j++ {
			sum += h.PMF(j)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF is monotone nondecreasing, 0 below support, 1 at the top.
func TestHypergeometricCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(rng.Intn(300) + 2)
		k := int64(rng.Intn(int(n)))
		m := int64(rng.Intn(int(n)))
		h, err := NewHypergeometric(n, k, m)
		if err != nil {
			return false
		}
		lo, hi := h.Support()
		prev := 0.0
		for j := lo - 1; j <= hi+1; j++ {
			c := h.CDF(j)
			if c < prev-1e-12 || c < 0 || c > 1 {
				return false
			}
			prev = c
		}
		return math.Abs(h.CDF(hi)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHypergeometricCDFMatchesPMFSum(t *testing.T) {
	h, _ := NewHypergeometric(100, 30, 20)
	var sum float64
	for j := int64(0); j <= 10; j++ {
		sum += h.PMF(j)
		if got := h.CDF(j); math.Abs(got-sum) > 1e-9 {
			t.Fatalf("CDF(%d) = %g, pmf prefix sum = %g", j, got, sum)
		}
	}
}

func TestHypergeometricMoments(t *testing.T) {
	h, _ := NewHypergeometric(1000, 100, 50)
	if mean := h.Mean(); math.Abs(mean-5) > 1e-12 {
		t.Fatalf("Mean = %g, want 5", mean)
	}
	wantVar := 50.0 * 0.1 * 0.9 * (950.0 / 999.0)
	if v := h.Variance(); math.Abs(v-wantVar) > 1e-9 {
		t.Fatalf("Variance = %g, want %g", v, wantVar)
	}
}

func TestHypergeometricMomentsDegenerate(t *testing.T) {
	h := Hypergeometric{N: 0, K: 0, M: 0}
	if h.Mean() != 0 || h.Variance() != 0 {
		t.Fatal("degenerate distribution should have zero moments")
	}
	h1 := Hypergeometric{N: 1, K: 1, M: 1}
	if h1.Variance() != 0 {
		t.Fatal("N=1 variance should be 0")
	}
}

func TestUnderRepPValuesBatchMatchesDirect(t *testing.T) {
	totalN := int64(100000)
	sigma := 0.001 // ⌈σN⌉ = 100
	m := int64(5000)
	counts := []int64{0, 1, 2, 3, 5, 8, 20, 100}
	got, err := UnderRepPValues(counts, totalN, sigma, m)
	if err != nil {
		t.Fatal(err)
	}
	k := int64(math.Ceil(sigma * float64(totalN)))
	h, _ := NewHypergeometric(totalN, k, m)
	for i, c := range counts {
		want := h.CDF(c)
		if math.Abs(got[i]-want) > 1e-9 {
			t.Errorf("P-value for count %d = %g, want %g", c, got[i], want)
		}
	}
}

func TestUnderRepPValuesRareVsCommon(t *testing.T) {
	// A candidate with zero observations out of a large sample should have
	// a tiny P-value; one near its expectation should not be flagged.
	totalN := int64(1_000_000)
	sigma := 0.0008 // expect ≥ 800 tuples ⇒ ~4 in a 5000 sample... use larger m.
	m := int64(500_000)
	pv, err := UnderRepPValues([]int64{0, 400, 390}, totalN, sigma, m)
	if err != nil {
		t.Fatal(err)
	}
	if pv[0] > 1e-50 {
		t.Fatalf("zero-count candidate P-value too large: %g", pv[0])
	}
	// Expected count under the null boundary is m·σ = 400.
	if pv[1] < 0.3 {
		t.Fatalf("at-expectation candidate unexpectedly surprising: %g", pv[1])
	}
	if pv[2] >= pv[1] {
		t.Fatalf("fewer observations should be more surprising: p(390)=%g p(400)=%g", pv[2], pv[1])
	}
}

func TestUnderRepPValuesValidation(t *testing.T) {
	if _, err := UnderRepPValues([]int64{1}, 100, -0.1, 10); err == nil {
		t.Fatal("negative sigma accepted")
	}
	if _, err := UnderRepPValues([]int64{-1}, 100, 0.1, 10); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestUnderRepPValuesSigmaOne(t *testing.T) {
	// σ=1 ⇒ K=N: every candidate trivially under-represented unless it
	// accounts for the whole sample.
	pv, err := UnderRepPValues([]int64{5, 10}, 100, 1.0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pv[0] != 0 {
		t.Fatalf("count below support with K=N should have P-value 0, got %g", pv[0])
	}
	if pv[1] != 1 {
		t.Fatalf("count at m with K=N should have P-value 1, got %g", pv[1])
	}
}

// Property: batch P-values are monotone in the observed count.
func TestUnderRepPValuesMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		totalN := int64(rng.Intn(100000) + 1000)
		m := int64(rng.Intn(int(totalN/2)) + 10)
		sigma := rng.Float64() * 0.01
		counts := []int64{0, 1, 2, 5, 10, 50}
		pv, err := UnderRepPValues(counts, totalN, sigma, m)
		if err != nil {
			return false
		}
		for i := 1; i < len(pv); i++ {
			if pv[i] < pv[i-1]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// logSpaceCDF is an independent reference for P(X ≤ j): the forward
// term recurrence from f(lo), carried entirely in log space and summed
// with log-sum-exp, so no term underflows however small f(lo) is.
func logSpaceCDF(h Hypergeometric, j int64) float64 {
	lo, hi := h.Support()
	if j < lo {
		return 0
	}
	if j >= hi {
		return 1
	}
	logp := h.LogPMF(lo)
	logSum := logp
	for i := lo; i < j; i++ {
		logp += math.Log(float64(h.K-i)*float64(h.M-i)) - math.Log(float64(i+1)*float64(h.N-h.K-h.M+i+1))
		hiL, loL := math.Max(logSum, logp), math.Min(logSum, logp)
		logSum = hiL + math.Log1p(math.Exp(loL-hiL))
	}
	return math.Min(1, math.Exp(logSum))
}

// Property: over σ·m ∈ [1, 10⁵] — far past the ≈745 where f(0)
// underflows in float64 — the batch P-values equal Hypergeometric.CDF,
// and both equal the log-space reference, on counts spread across the
// whole distribution (deep lower tail, mean, upper tail). The relative
// tolerance covers LogPMF itself: a difference of log-gammas near
// ln(N!) ≈ 10¹⁰ keeps only ~10⁻⁶ of absolute precision.
func TestUnderRepPValuesLargeSigmaMMatchesCDF(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sm := math.Exp(rng.Float64() * math.Log(1e5))      // σ·m, log-uniform in [1, 1e5]
		m := int64(math.Ceil(sm * (1 + rng.Float64()*99))) // σ ∈ [0.01, 1]: m ≥ σ·m
		totalN := m * int64(2+rng.Intn(200))
		sigma := sm / float64(m)
		h, err := NewHypergeometric(totalN, int64(math.Ceil(sigma*float64(totalN))), m)
		if err != nil {
			t.Log(err)
			return false
		}
		mean, sd := h.Mean(), math.Sqrt(h.Variance())
		var counts []int64
		for _, z := range []float64{-40, -6, -2, -0.5, 0, 0.5, 2, 6} {
			if c := int64(mean + z*sd); c >= 0 {
				counts = append(counts, c)
			}
		}
		counts = append(counts, 0)
		pv, err := UnderRepPValues(counts, totalN, sigma, m)
		if err != nil {
			t.Log(err)
			return false
		}
		for i, c := range counts {
			want := logSpaceCDF(h, c)
			if cdf := h.CDF(c); math.Abs(cdf-want) > 1e-9+1e-4*want {
				t.Logf("N=%d K=%d m=%d: CDF(%d) = %g, log-space sum %g", h.N, h.K, h.M, c, cdf, want)
				return false
			}
			if math.Abs(pv[i]-want) > 1e-9+1e-4*want {
				t.Logf("N=%d K=%d m=%d: P-value(%d) = %g, log-space sum %g", h.N, h.K, h.M, c, pv[i], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
