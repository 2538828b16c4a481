package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// Fingerprinting renders queries, targets, and options as canonical
// strings, so a serving layer can key plan and result caches without
// hashing Go values directly. Two values with equal fingerprints are
// interchangeable for execution: equal query fingerprints may share a
// Plan, and equal (query, target, options) triples produce identical
// Results (runs are deterministic given Seed/StartBlock).

// fpWriter builds a fingerprint from tagged, quoted fields so adjacent
// values can never collide (each string is %q-escaped).
type fpWriter struct{ sb strings.Builder }

func (w *fpWriter) str(tag, v string) { fmt.Fprintf(&w.sb, "%s=%q;", tag, v) }
func (w *fpWriter) strs(tag string, vs []string) {
	fmt.Fprintf(&w.sb, "%s=[", tag)
	for _, v := range vs {
		fmt.Fprintf(&w.sb, "%q,", v)
	}
	w.sb.WriteString("];")
}
func (w *fpWriter) num(tag string, v float64) {
	w.sb.WriteString(tag)
	w.sb.WriteByte('=')
	w.sb.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
	w.sb.WriteByte(';')
}
func (w *fpWriter) int(tag string, v int64) {
	w.sb.WriteString(tag)
	w.sb.WriteByte('=')
	w.sb.WriteString(strconv.FormatInt(v, 10))
	w.sb.WriteByte(';')
}

// Fingerprint returns a canonical cache key for the query shape: two
// queries with the same fingerprint resolve to interchangeable Plans over
// the same Engine. CandidatePreds are keyed by their String() forms,
// which the bitmap predicates render canonically.
func (q Query) Fingerprint() string {
	var w fpWriter
	w.str("z", q.Z)
	w.strs("known", q.KnownCandidates)
	if len(q.CandidatePreds) > 0 {
		preds := make([]string, len(q.CandidatePreds))
		for i, p := range q.CandidatePreds {
			preds[i] = p.String()
		}
		w.strs("preds", preds)
	}
	w.strs("x", q.X)
	w.str("xmeasure", q.XMeasure)
	if q.XBins != nil {
		edges := q.XBins.Edges()
		w.int("xbins", int64(len(edges)))
		for _, e := range edges {
			w.num("e", e)
		}
	}
	return w.sb.String()
}

// Fingerprint returns a canonical cache key for the target specification.
// The case order mirrors Plan.ResolveTarget's precedence (Counts, then
// Uniform, then Candidate) so that two specifications resolving to the
// same target — e.g. candidate+uniform set together, where Uniform wins —
// share a fingerprint, and ones resolving differently never do.
func (t Target) Fingerprint() string {
	var w fpWriter
	switch {
	case len(t.Counts) > 0:
		w.int("counts", int64(len(t.Counts)))
		for _, c := range t.Counts {
			w.num("c", c)
		}
	case t.Uniform:
		w.str("uniform", "true")
	case t.Candidate != "":
		w.str("cand", t.Candidate)
	}
	return w.sb.String()
}

// Fingerprint returns a canonical cache key for every run-affecting
// option. Two runs of the same Plan and target with equal option
// fingerprints produce identical Results, IOStats included: the executors
// are deterministic given Seed (which fixes the start block when
// StartBlock is negative), and every run skips the plan's prunable blocks
// and accumulates through the kernels, so no option changes the I/O.
// Workers is written only for ParallelScan, the one executor whose run it
// partitions: Scan and the sampling executors ignore it, so requests that
// differ only in Workers share one key there. OnProgress and Trace (no
// effect on the result; purely observational) are deliberately
// excluded — which is also why serving layers must bypass
// their result-cache read for traced requests: the fingerprint of a
// traced and an untraced request is identical by design.
func (o Options) Fingerprint() string {
	var w fpWriter
	p := o.Params
	w.int("k", int64(p.K))
	w.num("eps", p.Epsilon)
	w.num("eps2", p.EpsilonReconstruct)
	w.num("delta", p.Delta)
	w.num("sigma", p.Sigma)
	w.int("m", int64(p.Stage1Samples))
	w.str("metric", p.Metric.String())
	w.int("kmin", int64(p.KRange.KMin))
	w.int("kmax", int64(p.KRange.KMax))
	w.int("rounds", int64(p.MaxRounds))
	w.str("exec", o.Executor.String())
	w.int("lookahead", int64(o.Lookahead))
	w.int("start", int64(o.StartBlock))
	w.int("seed", o.Seed)
	if o.Executor == ParallelScan {
		w.int("workers", int64(o.Workers))
	}
	w.int("rowbudget", o.RowBudget)
	return w.sb.String()
}
