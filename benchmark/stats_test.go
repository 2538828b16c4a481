package main

import (
	"math"
	"testing"

	"fastmatch/internal/obs/trace"
)

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {75, 40}, {90, 46}, {100, 50}, {12.5, 15},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	span := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{110, 150}}, 60},
		{"disjoint children", []interval{{110, 120}, {150, 180}}, 60},
		{"overlapping children count once", []interval{{110, 160}, {140, 180}}, 30},
		{"nested children count once", []interval{{110, 190}, {120, 130}}, 20},
		{"a child sticking out is clipped", []interval{{50, 120}, {190, 300}}, 70},
		{"a child outside covers nothing", []interval{{0, 50}}, 100},
		{"unsorted children", []interval{{150, 180}, {110, 120}}, 60},
	} {
		if got := selfNS(span, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestFoldSelfTimes(t *testing.T) {
	sn := trace.Snapshot{DurationNS: 950, Spans: []trace.SpanSnapshot{
		{Name: "decode", StartNS: 10, DurationNS: 40},
		{Name: "plan_cache", StartNS: 60, DurationNS: 10},
		{Name: "result_cache", StartNS: 70, DurationNS: 5},
		{Name: "resolve_target", StartNS: 100, DurationNS: 200},
		{Name: "run", StartNS: 300, DurationNS: 600, Children: []trace.SpanSnapshot{
			{Name: "stage1", StartNS: 310, DurationNS: 100},
			{Name: "stage2.round1", StartNS: 410, DurationNS: 150},
			{Name: "stage2.round2", StartNS: 560, DurationNS: 150},
			{Name: "stage3", StartNS: 710, DurationNS: 90},
			{Name: "tail", StartNS: 800, DurationNS: 30},
			{Name: "worker0", StartNS: 830, DurationNS: 20},
		}},
	}}
	got := foldSelfTimes(sn, 1000)
	want := map[string]int64{
		"request": 1000 - 40 - 15 - 200 - 600, "decode": 40, "caches": 15, "resolve_target": 200,
		"run": 600 - 100 - 300 - 90 - 50, "stage1": 100, "stage2": 300, "stage3": 90, "other": 30, "workers": 20,
	}
	var sum int64
	for _, b := range spanBuckets {
		if got[b] != want[b] {
			t.Errorf("bucket %s: self time %d, want %d", b, got[b], want[b])
		}
		sum += got[b]
	}
	if sum != 1000 {
		t.Errorf("serial spans must sum to the request: got %d, want 1000", sum)
	}
	for b := range got {
		if _, ok := want[b]; !ok {
			t.Errorf("unexpected bucket %q", b)
		}
	}
}
