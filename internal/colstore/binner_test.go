package colstore

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBinnerValidation(t *testing.T) {
	if _, err := NewBinner([]float64{1}); err == nil {
		t.Fatal("single edge accepted")
	}
	if _, err := NewBinner([]float64{1, 1}); err == nil {
		t.Fatal("non-increasing edges accepted")
	}
	if _, err := NewBinner([]float64{2, 1}); err == nil {
		t.Fatal("decreasing edges accepted")
	}
	if _, err := NewBinner([]float64{0, 1, 5}); err != nil {
		t.Fatal("valid edges rejected")
	}
}

func TestUniformBinner(t *testing.T) {
	b, err := NewUniformBinner(0, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumBins() != 24 {
		t.Fatalf("NumBins = %d", b.NumBins())
	}
	cases := []struct {
		v    float64
		bin  int
		ok   bool
		name string
	}{
		{0, 0, true, "bottom edge"},
		{0.5, 0, true, "inside first"},
		{1, 1, true, "interior edge goes right"},
		{23.99, 23, true, "inside last"},
		{24, 23, true, "top edge in last bin"},
		{-0.1, 0, false, "below range"},
		{24.1, 0, false, "above range"},
		{math.NaN(), 0, false, "NaN"},
	}
	for _, c := range cases {
		bin, ok := b.Bin(c.v)
		if ok != c.ok || (ok && bin != c.bin) {
			t.Errorf("%s: Bin(%g) = (%d, %v), want (%d, %v)", c.name, c.v, bin, ok, c.bin, c.ok)
		}
	}
}

func TestUniformBinnerValidation(t *testing.T) {
	if _, err := NewUniformBinner(0, 10, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, err := NewUniformBinner(5, 5, 3); err == nil {
		t.Fatal("empty range accepted")
	}
	// The width overflows to +Inf, so the edges start NaN, +Inf.
	if b, err := NewUniformBinner(-1e308, 1e308, 2); err == nil {
		t.Fatalf("overflowing range accepted with edges %v", b.Edges())
	}
	// Eight bins over a range of two float64 ulps repeat edges.
	if b, err := NewUniformBinner(1e16, 1e16+4, 8); err == nil {
		t.Fatalf("zero-width bins accepted with edges %v", b.Edges())
	}
}

func TestBinnerLabel(t *testing.T) {
	b, _ := NewBinner([]float64{0, 10, 20})
	if got := b.Label(0); got != "[0, 10)" {
		t.Fatalf("Label(0) = %q", got)
	}
	if got := b.Label(1); got != "[10, 20]" {
		t.Fatalf("Label(1) = %q", got)
	}
	if got := b.Label(9); got != "bin(9)" {
		t.Fatalf("Label out of range = %q", got)
	}
}

// Property: every in-range value lands in exactly the bin whose edges
// bracket it.
func TestBinConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		b, err := NewUniformBinner(0, 100, n)
		if err != nil {
			return false
		}
		for trial := 0; trial < 50; trial++ {
			v := rng.Float64() * 100
			bin, ok := b.Bin(v)
			if !ok {
				return false
			}
			w := 100.0 / float64(n)
			lo, hi := float64(bin)*w, float64(bin+1)*w
			if v < lo-1e-9 || v >= hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
