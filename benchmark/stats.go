package main

import (
	"sort"
	"strings"
	"time"

	"fastmatch/internal/obs/trace"
)

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between order statistics (the estimator /v1/stats uses).
// xs need not be sorted; an empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b with 0 for an empty base, so counters that never moved
// read zero instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// selfNS is a span's self time: its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (parallel workers) and may stick out of the parent; only the covered
// part of the parent's own interval is subtracted.
func selfNS(span interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.lo < span.lo {
			c.lo = span.lo
		}
		if c.hi > span.hi {
			c.hi = span.hi
		}
		if c.hi > c.lo {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
	covered, end := int64(0), span.lo
	for _, c := range cs {
		if c.lo > end {
			end = c.lo
		}
		if c.hi > end {
			covered += c.hi - end
			end = c.hi
		}
	}
	return span.hi - span.lo - covered
}

// spanBuckets are the fixed names a server span tree folds into, so the
// metric set is the same for every executor and topology. "request" is
// the tree's root: the time inside the request no named span covers.
// "workers" sums the parallel partitions of an exact scan, so on those
// requests the buckets add up to more than the wall time.
var spanBuckets = []string{
	"request", "decode", "admission", "caches", "plan", "resolve_target",
	"run", "workers", "stage1", "stage2", "stage3", "other",
}

// spanBucket maps a server span name onto its bucket.
func spanBucket(name string) string {
	switch name {
	case "decode", "admission", "plan", "resolve_target", "run", "stage1", "stage3":
		return name
	case "plan_cache", "result_cache":
		return "caches"
	}
	switch {
	case strings.HasPrefix(name, "stage2"): // stage2.roundN
		return "stage2"
	case strings.HasPrefix(name, "worker"): // an exact scan's parallel partitions
		return "workers"
	}
	return "other"
}

// foldSelfTimes folds one request's span tree into per-bucket self times
// (nanoseconds), under a root span of rootNS — the request's server-side
// duration. The buckets sum to rootNS whenever sibling spans do not
// overlap.
func foldSelfTimes(sn trace.Snapshot, rootNS int64) map[string]int64 {
	out := make(map[string]int64, len(spanBuckets))
	var walk func(bucket string, span interval, children []trace.SpanSnapshot)
	walk = func(bucket string, span interval, children []trace.SpanSnapshot) {
		ivs := make([]interval, len(children))
		for i, c := range children {
			ivs[i] = interval{c.StartNS, c.StartNS + c.DurationNS}
			walk(spanBucket(c.Name), ivs[i], c.Children)
		}
		out[bucket] += selfNS(span, ivs)
	}
	walk("request", interval{0, rootNS}, sn.Spans)
	return out
}
