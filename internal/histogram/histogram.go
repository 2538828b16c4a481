// Package histogram provides the vector representation of candidate
// visualizations used throughout FastMatch, along with the normalized
// distance metrics from Section 2 of the paper.
//
// A histogram is the result of a histogram-generating query
//
//	SELECT X, COUNT(*) FROM T WHERE Z = z GROUP BY X
//
// represented as a vector of per-group counts indexed by the dictionary
// code of the grouping attribute X. Distances are always computed between
// the L1-normalized ("distributional") forms of the vectors, matching
// Definition 2 of the paper.
package histogram

import (
	"errors"
	"fmt"
	"math"
)

// Histogram is a vector of non-negative per-group counts. The zero value of
// length n (all counts zero) is ready to use.
type Histogram struct {
	counts []float64
	total  float64
}

// New returns an empty histogram with n groups.
func New(n int) *Histogram {
	return &Histogram{counts: make([]float64, n)}
}

// FromCounts builds a histogram from a count vector. The slice is copied.
func FromCounts(counts []float64) *Histogram {
	h := New(len(counts))
	for i, c := range counts {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			c = 0
		}
		h.counts[i] = c
		h.total += c
	}
	return h
}

// Groups returns the number of groups (|V_X| in the paper's notation).
func (h *Histogram) Groups() int { return len(h.counts) }

// Total returns the sum of all counts (1ᵀr in the paper's notation).
func (h *Histogram) Total() float64 { return h.total }

// Count returns the count for group j.
func (h *Histogram) Count(j int) float64 { return h.counts[j] }

// Counts returns a copy of the underlying count vector.
func (h *Histogram) Counts() []float64 {
	out := make([]float64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Add increments group j by one. It panics if j is out of range, matching
// slice-indexing semantics: callers feed dictionary codes that are valid by
// construction.
func (h *Histogram) Add(j int) {
	h.counts[j]++
	h.total++
}

// AddN increments group j by n, the bulk form of Add used when a scan
// kernel folds a whole block's per-group counts in one call. n is a
// non-negative integer-valued count; sums of such counts stay exactly
// representable (and therefore bit-identical to n repeated Adds) up to
// 2^53.
func (h *Histogram) AddN(j int, n float64) {
	h.counts[j] += n
	h.total += n
}

// AddHistogram accumulates other into h. Both must have the same number of
// groups.
func (h *Histogram) AddHistogram(other *Histogram) error {
	if len(h.counts) != len(other.counts) {
		return fmt.Errorf("histogram: group mismatch %d vs %d", len(h.counts), len(other.counts))
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	return nil
}

// Reset zeroes every count, reusing the allocation.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	c := New(len(h.counts))
	copy(c.counts, h.counts)
	c.total = h.total
	return c
}

// Normalized returns the L1-normalized distribution r̄ = r / 1ᵀr as a fresh
// slice. If the histogram is empty it returns the uniform distribution,
// which is the convention HistSim uses for candidates with no samples yet
// (their distance estimate is then maximally uninformative rather than NaN).
func (h *Histogram) Normalized() []float64 {
	out := make([]float64, len(h.counts))
	h.NormalizedInto(out)
	return out
}

// NormalizedInto writes the normalized distribution into dst, which must
// have length Groups(). It avoids allocation in hot loops.
func (h *Histogram) NormalizedInto(dst []float64) {
	if len(dst) != len(h.counts) {
		panic(fmt.Sprintf("histogram: NormalizedInto dst length %d want %d", len(dst), len(h.counts)))
	}
	if h.total <= 0 {
		u := 1.0 / float64(len(h.counts))
		for i := range dst {
			dst[i] = u
		}
		return
	}
	inv := 1.0 / h.total
	for i, c := range h.counts {
		dst[i] = c * inv
	}
}

// String implements fmt.Stringer with a compact count rendering.
func (h *Histogram) String() string {
	return fmt.Sprintf("Histogram(n=%d, total=%g)", len(h.counts), h.total)
}

// ErrGroupMismatch is returned when two histograms with different group
// counts are compared.
var ErrGroupMismatch = errors.New("histogram: group count mismatch")

// L1 returns the normalized L1 distance d(a, b) = ‖ā − b̄‖₁ (Definition 2).
// The result lies in [0, 2]. It panics if the group counts differ.
func L1(a, b *Histogram) float64 {
	mustMatch(a, b)
	if a.total <= 0 && b.total <= 0 {
		return 0
	}
	// Inline normalization to avoid two slice allocations per call: this is
	// the innermost loop of HistSim's per-round distance refresh.
	invA, invB := safeInv(a.total, len(a.counts)), safeInv(b.total, len(b.counts))
	uA, uB := uniformTerm(a, invA), uniformTerm(b, invB)
	var sum float64
	for i := range a.counts {
		pa, pb := uA, uB
		if invA > 0 {
			pa = a.counts[i] * invA
		}
		if invB > 0 {
			pb = b.counts[i] * invB
		}
		sum += math.Abs(pa - pb)
	}
	return sum
}

// L2 returns the normalized L2 distance ‖ā − b̄‖₂, the metric used by
// SeeDB/Sample+Seek and compared against L1 in Table 5 of the paper.
func L2(a, b *Histogram) float64 {
	mustMatch(a, b)
	if a.total <= 0 && b.total <= 0 {
		return 0
	}
	invA, invB := safeInv(a.total, len(a.counts)), safeInv(b.total, len(b.counts))
	uA, uB := uniformTerm(a, invA), uniformTerm(b, invB)
	var sum float64
	for i := range a.counts {
		pa, pb := uA, uB
		if invA > 0 {
			pa = a.counts[i] * invA
		}
		if invB > 0 {
			pb = b.counts[i] * invB
		}
		d := pa - pb
		sum += d * d
	}
	return math.Sqrt(sum)
}

func mustMatch(a, b *Histogram) {
	if len(a.counts) != len(b.counts) {
		panic(fmt.Sprintf("histogram: distance between mismatched group counts %d vs %d",
			len(a.counts), len(b.counts)))
	}
}

func safeInv(total float64, _ int) float64 {
	if total <= 0 {
		return 0
	}
	return 1 / total
}

func uniformTerm(h *Histogram, inv float64) float64 {
	if inv > 0 {
		return 0
	}
	return 1.0 / float64(len(h.counts))
}
