package histogram

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewEmpty(t *testing.T) {
	h := New(5)
	if h.Groups() != 5 {
		t.Fatalf("Groups() = %d, want 5", h.Groups())
	}
	if h.Total() != 0 {
		t.Fatalf("Total() = %g, want 0", h.Total())
	}
}

func TestAddAndCount(t *testing.T) {
	h := New(3)
	h.Add(0)
	h.Add(0)
	h.Add(2)
	if h.Count(0) != 2 || h.Count(1) != 0 || h.Count(2) != 1 {
		t.Fatalf("counts = %v", h.Counts())
	}
	if h.Total() != 3 {
		t.Fatalf("Total() = %g, want 3", h.Total())
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	New(2).Add(5)
}

func TestFromCountsSanitizes(t *testing.T) {
	h := FromCounts([]float64{1, -3, math.NaN(), math.Inf(1), 2})
	if h.Count(1) != 0 || h.Count(2) != 0 || h.Count(3) != 0 {
		t.Fatalf("invalid counts not sanitized: %v", h.Counts())
	}
	if h.Total() != 3 {
		t.Fatalf("Total() = %g, want 3", h.Total())
	}
}

func TestAddHistogram(t *testing.T) {
	a := FromCounts([]float64{1, 2})
	b := FromCounts([]float64{3, 4})
	if err := a.AddHistogram(b); err != nil {
		t.Fatal(err)
	}
	if a.Count(0) != 4 || a.Count(1) != 6 || a.Total() != 10 {
		t.Fatalf("AddHistogram wrong: %v", a.Counts())
	}
	if err := a.AddHistogram(New(3)); err == nil {
		t.Fatal("mismatched AddHistogram did not error")
	}
}

func TestResetAndClone(t *testing.T) {
	h := FromCounts([]float64{1, 2, 3})
	c := h.Clone()
	h.Reset()
	if h.Total() != 0 {
		t.Fatalf("Reset left total %g", h.Total())
	}
	if c.Total() != 6 || c.Count(2) != 3 {
		t.Fatalf("Clone shares state with original")
	}
}

func TestNormalizedSumsToOne(t *testing.T) {
	h := FromCounts([]float64{3, 1, 6})
	p := h.Normalized()
	var sum float64
	for _, v := range p {
		sum += v
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Fatalf("normalized sum = %g", sum)
	}
	if !almostEqual(p[2], 0.6, 1e-12) {
		t.Fatalf("p[2] = %g, want 0.6", p[2])
	}
}

func TestNormalizedEmptyIsUniform(t *testing.T) {
	p := New(4).Normalized()
	for _, v := range p {
		if !almostEqual(v, 0.25, 1e-12) {
			t.Fatalf("empty normalization not uniform: %v", p)
		}
	}
}

func TestNormalizedIntoMatchesNormalized(t *testing.T) {
	h := FromCounts([]float64{5, 0, 2, 9})
	dst := make([]float64, 4)
	h.NormalizedInto(dst)
	for i, v := range h.Normalized() {
		if dst[i] != v {
			t.Fatalf("NormalizedInto[%d] = %g want %g", i, dst[i], v)
		}
	}
}

func TestNormalizedIntoPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong dst length")
		}
	}()
	New(3).NormalizedInto(make([]float64, 2))
}

// Property: normalization is scale-invariant, so scaling all counts leaves
// every pairwise distance unchanged. This is the paper's Figure 3 point —
// the goldenrod histogram is identical to the blue one post-normalization.
func TestScaleInvarianceProperty(t *testing.T) {
	f := func(raw []uint16, scale uint8) bool {
		if len(raw) < 2 {
			return true
		}
		counts := make([]float64, len(raw))
		any := false
		for i, v := range raw {
			counts[i] = float64(v)
			if v > 0 {
				any = true
			}
		}
		if !any {
			return true
		}
		s := float64(scale%7) + 2
		scaled := make([]float64, len(counts))
		for i, v := range counts {
			scaled[i] = v * s
		}
		a, b := FromCounts(counts), FromCounts(scaled)
		return almostEqual(L1(a, b), 0, 1e-9) && almostEqual(L2(a, b), 0, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: L1 satisfies metric axioms on normalized histograms —
// non-negativity, symmetry, triangle inequality, and a range of [0, 2].
func TestL1MetricAxiomsProperty(t *testing.T) {
	f := func(xs, ys, zs [8]uint16) bool {
		a := fromArray(xs)
		b := fromArray(ys)
		c := fromArray(zs)
		dab, dba := L1(a, b), L1(b, a)
		dac, dbc := L1(a, c), L1(b, c)
		if dab < 0 || dab > 2+1e-9 {
			return false
		}
		if !almostEqual(dab, dba, 1e-12) {
			return false
		}
		return dac <= dab+dbc+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: L2 ≤ L1 ≤ sqrt(n)·L2 for n-dimensional vectors.
func TestNormEquivalenceProperty(t *testing.T) {
	f := func(xs, ys [6]uint16) bool {
		a, b := fromArray6(xs), fromArray6(ys)
		l1, l2 := L1(a, b), L2(a, b)
		return l2 <= l1+1e-9 && l1 <= math.Sqrt(6)*l2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func fromArray(xs [8]uint16) *Histogram {
	counts := make([]float64, 8)
	for i, v := range xs {
		counts[i] = float64(v)
	}
	return FromCounts(counts)
}

func fromArray6(xs [6]uint16) *Histogram {
	counts := make([]float64, 6)
	for i, v := range xs {
		counts[i] = float64(v)
	}
	return FromCounts(counts)
}

func fromArray5(xs [5]uint16) *Histogram {
	counts := make([]float64, 5)
	for i, v := range xs {
		counts[i] = float64(v)
	}
	return FromCounts(counts)
}

func TestDistancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("L1 on mismatched sizes did not panic")
		}
	}()
	L1(New(2), New(3))
}

func TestL1BothEmptyIsZero(t *testing.T) {
	if d := L1(New(3), New(3)); d != 0 {
		t.Fatalf("L1(empty, empty) = %g", d)
	}
}

func TestL1OneEmptyUsesUniform(t *testing.T) {
	a := New(2)
	b := FromCounts([]float64{1, 0})
	// ā = (0.5, 0.5); b̄ = (1, 0); L1 = 1.
	if d := L1(a, b); !almostEqual(d, 1, 1e-12) {
		t.Fatalf("L1(empty, point) = %g, want 1", d)
	}
}

func TestL1MaxIsTwo(t *testing.T) {
	a := FromCounts([]float64{1, 0})
	b := FromCounts([]float64{0, 1})
	if d := L1(a, b); !almostEqual(d, 2, 1e-12) {
		t.Fatalf("disjoint L1 = %g, want 2", d)
	}
}

func TestL2SmallOnDisjointHeavyTails(t *testing.T) {
	// The paper (§2.1) notes L2 can be small even for distributions with
	// disjoint support when mass is spread out; verify L2 << L1 here.
	n := 100
	ca, cb := make([]float64, 2*n), make([]float64, 2*n)
	for i := 0; i < n; i++ {
		ca[i] = 1
		cb[n+i] = 1
	}
	a, b := FromCounts(ca), FromCounts(cb)
	if l1 := L1(a, b); !almostEqual(l1, 2, 1e-9) {
		t.Fatalf("L1 = %g, want 2", l1)
	}
	if l2 := L2(a, b); l2 > 0.2 {
		t.Fatalf("L2 = %g, expected << L1 for spread-out disjoint mass", l2)
	}
}
