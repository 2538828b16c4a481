package colstore

import (
	"fmt"
	"math"
	"sort"
)

// Binner maps a continuous value into one of a fixed set of non-overlapping
// bins, implementing the binning extensions of Appendix A.1.4 (continuous X
// attributes) and A.1.6 (continuous candidate attributes). Bin i covers
// [edges[i], edges[i+1]), except the last bin which is closed on the right.
type Binner struct {
	edges []float64
}

// NewBinner builds a binner from explicit, strictly increasing bin edges.
// len(edges) must be ≥ 2, giving len(edges)−1 bins.
func NewBinner(edges []float64) (*Binner, error) {
	if len(edges) < 2 {
		return nil, fmt.Errorf("colstore: need at least 2 bin edges, got %d", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			return nil, fmt.Errorf("colstore: bin edges not strictly increasing at %d (%g, %g)",
				i, edges[i-1], edges[i])
		}
	}
	out := make([]float64, len(edges))
	copy(out, edges)
	return &Binner{edges: out}, nil
}

// NewUniformBinner builds n equal-width bins over [lo, hi]. The built
// edges must be strictly increasing, as NewBinner requires: a range whose
// width overflows, or one too narrow for n distinct float64 edges, is an
// error.
func NewUniformBinner(lo, hi float64, n int) (*Binner, error) {
	if n < 1 {
		return nil, fmt.Errorf("colstore: need at least 1 bin, got %d", n)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("colstore: invalid range [%g, %g]", lo, hi)
	}
	edges := make([]float64, n+1)
	w := (hi - lo) / float64(n)
	for i := range edges {
		edges[i] = lo + float64(i)*w
	}
	edges[n] = hi // avoid accumulated FP error at the top edge
	return NewBinner(edges)
}

// NumBins returns the number of bins.
func (b *Binner) NumBins() int { return len(b.edges) - 1 }

// Edges returns a copy of the bin edges (length NumBins()+1).
func (b *Binner) Edges() []float64 {
	out := make([]float64, len(b.edges))
	copy(out, b.edges)
	return out
}

// Bin returns the bin index for v and whether v falls inside the binner's
// range. Values exactly at the top edge land in the last bin.
func (b *Binner) Bin(v float64) (int, bool) {
	if math.IsNaN(v) || v < b.edges[0] || v > b.edges[len(b.edges)-1] {
		return 0, false
	}
	if v == b.edges[len(b.edges)-1] {
		return len(b.edges) - 2, true
	}
	// sort.SearchFloat64s finds the first edge > v when we search for
	// v+ulp; simpler: find rightmost edge ≤ v.
	i := sort.SearchFloat64s(b.edges, v)
	if i < len(b.edges) && b.edges[i] == v {
		return i, true
	}
	return i - 1, true
}

// Label renders a human-readable label for bin i, e.g. "[3, 5)".
func (b *Binner) Label(i int) string {
	if i < 0 || i >= b.NumBins() {
		return fmt.Sprintf("bin(%d)", i)
	}
	close := ")"
	if i == b.NumBins()-1 {
		close = "]"
	}
	return fmt.Sprintf("[%g, %g%s", b.edges[i], b.edges[i+1], close)
}
