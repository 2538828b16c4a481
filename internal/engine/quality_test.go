package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"fastmatch/internal/histogram"
)

// Quality equivalence suite: requesting answer-quality telemetry must be
// invisible to the answer itself. Every sampling executor, on every
// storage backend, must return a byte-identical Result (including
// IOStats) with Options.Quality on and off — quality collection reads
// the estimates HistSim already maintains, it never steers sampling.

func TestQualityByteIdenticalAcrossExecutorsAndBackends(t *testing.T) {
	tbl := skipTestTable(t)
	for backend, eng := range skipTestBackends(t, tbl) {
		for qname, q := range skipQueries(t, eng) {
			for _, exec := range samplingExecutors() {
				t.Run(fmt.Sprintf("%s/%s/%s", backend, qname, exec), func(t *testing.T) {
					opts := equivOptions(exec, eng.Source().NumBlocks())
					plain, err := eng.Run(q, Target{Uniform: true}, opts)
					if err != nil {
						t.Fatal(err)
					}
					opts.Quality = true
					collected, err := eng.Run(q, Target{Uniform: true}, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := canonicalResult(t, collected), canonicalResult(t, plain); got != want {
						t.Fatalf("quality-collecting run diverges:\n%s\nvs\n%s", got, want)
					}
					if plain.Quality != nil {
						t.Fatal("plain run grew a Quality report")
					}
					qr := collected.Quality
					if qr == nil {
						t.Fatal("Options.Quality run returned no Result.Quality")
					}
					if qr.Truncated || !qr.GuaranteeMet {
						t.Fatalf("completed run reported %+v", qr)
					}
					if len(qr.Matches) != len(collected.TopK) {
						t.Fatalf("%d quality matches for %d TopK", len(qr.Matches), len(collected.TopK))
					}
					for i, m := range qr.Matches {
						if m.Label != collected.TopK[i].Label || m.Distance != collected.TopK[i].Distance {
							t.Fatalf("quality match %d (%s, %g) misaligned with TopK (%s, %g)",
								i, m.Label, m.Distance, collected.TopK[i].Label, collected.TopK[i].Distance)
						}
						if !collected.Exact && (m.CI <= 0 || math.IsInf(m.CI, 1)) {
							t.Fatalf("match %d: CI=%g", i, m.CI)
						}
					}
				})
			}
		}
	}
}

func TestQualityProgressFramesCarryTelemetry(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	eng := New(tbl)
	opts := equivOptions(FastMatch, tbl.NumBlocks())
	opts.Quality = true
	var frames []Progress
	opts.OnProgress = func(p Progress) { frames = append(frames, p) }
	res, err := eng.Run(baseQuery(), Target{Uniform: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("no progress frames")
	}
	for i, fr := range frames {
		if fr.Quality == nil {
			t.Fatalf("frame %d (%s) has no quality telemetry", i, fr.Phase)
		}
		if got, want := fr.Quality.Slack, fr.Quality.Gap-opts.Params.Epsilon; math.Abs(got-want) > 1e-12 {
			t.Fatalf("frame %d: slack %g != gap-ε %g", i, got, want)
		}
		for j, m := range fr.TopK {
			if m.CI <= 0 {
				t.Fatalf("frame %d match %d (%s): CI=%g, want > 0", i, j, m.Label, m.CI)
			}
		}
	}
	if res.Quality == nil {
		t.Fatal("no final quality report")
	}
	// Without Options.Quality the frames must stay lean.
	opts.Quality = false
	frames = nil
	if _, err := eng.Run(baseQuery(), Target{Uniform: true}, opts); err != nil {
		t.Fatal(err)
	}
	for i, fr := range frames {
		if fr.Quality != nil {
			t.Fatalf("frame %d carries quality telemetry without Options.Quality", i)
		}
		for j, m := range fr.TopK {
			if m.CI != 0 {
				t.Fatalf("frame %d match %d: CI=%g without Options.Quality", i, j, m.CI)
			}
		}
	}
}

// TestQualityTruncatedRunFlagged cuts a run off with a row budget and a
// deadline and checks the report says so: Termination "truncated",
// GuaranteeMet false — the flag the serving layer's guarantee-violation
// accounting keys off.
func TestQualityTruncatedRunFlagged(t *testing.T) {
	tbl := skipTestTable(t)
	eng := New(tbl)
	cases := map[string]struct {
		query    func(*testing.T) Query
		tweak    func(*Query, *Options)
		deadline time.Duration // the run's context deadline, from its start
	}{
		"row-budget": {
			query: func(t *testing.T) Query { return skipQueries(t, eng)["pred-cands"] },
			tweak: func(q *Query, o *Options) { o.RowBudget = 512 },
		},
		// The deadline must fire mid-run, after stage 1 landed samples.
		// The query matters: every z-value is a candidate, so no stage-1
		// block is zone-map prunable and the sleeping row filter really
		// runs (4 blocks × 64 rows × 100µs ≫ 5ms). Planned reads are
		// never abandoned, so stage 1 completes in full and the next
		// sampler call's opening guard check deterministically fires.
		"deadline": {
			query: func(*testing.T) Query { return baseQuery() },
			tweak: func(q *Query, o *Options) {
				q.Filter = func(int) bool { time.Sleep(100 * time.Microsecond); return true }
				o.Params.Stage1Samples = 256
				o.Workers = 1
			},
			deadline: 5 * time.Millisecond,
		},
	}
	for name, tc := range cases {
		tweak := tc.tweak
		t.Run(name, func(t *testing.T) {
			q := tc.query(t)
			opts := equivOptions(FastMatch, tbl.NumBlocks())
			opts.Quality = true
			tweak(&q, &opts)
			ctx := context.Background()
			if tc.deadline > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx, time.Now().Add(tc.deadline))
				defer cancel()
			}
			res, err := eng.RunContext(ctx, q, Target{Uniform: true}, opts)
			if err == nil || res == nil {
				t.Fatalf("res=%v err=%v, want partial result + error", res, err)
			}
			if !res.Partial {
				t.Fatal("truncated run not flagged Partial")
			}
			qr := res.Quality
			if qr == nil {
				t.Fatal("truncated run returned no quality report")
			}
			if !qr.Truncated || qr.GuaranteeMet || qr.Termination != "truncated" {
				t.Fatalf("truncated run reported %+v", qr)
			}
			// A truncated answer claimed no guarantee: auditing it must be
			// refused rather than counted as violations.
			plan, err := eng.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			target, err := plan.ResolveTarget(Target{Uniform: true}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := AuditRun(context.Background(), plan, target, res, opts); err == nil {
				t.Fatal("AuditRun accepted a partial answer")
			}
		})
	}
}

// TestAuditMatchesGroundTruth computes the exact ranking independently in
// the test and checks AuditRun's precision@k, rank displacement, and
// per-candidate errors against it exactly (seeded deterministic run).
func TestAuditMatchesGroundTruth(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	eng := New(tbl)
	plan, err := eng.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	target, err := plan.ResolveTarget(Target{Uniform: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := equivOptions(FastMatch, tbl.NumBlocks())
	opts.Quality = true
	approx, err := plan.RunWithTarget(target, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := len(approx.TopK)
	if k == 0 {
		t.Fatal("no approximate answer to audit")
	}

	// Ground truth: exact full ranking, computed the same way a client
	// would — Scan executor, every candidate ranked.
	exOpts := Options{Params: testParams(), Executor: Scan}
	exOpts.Params.K = plan.NumCandidates()
	exOpts.Params.Sigma = 0
	exact, err := plan.RunWithTarget(target, exOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Exact {
		t.Fatal("reference scan not exact")
	}
	exactRank := make(map[string]int)
	exactDist := make(map[string]float64)
	for i, m := range exact.TopK {
		exactRank[m.Label] = i
		exactDist[m.Label] = m.Distance
	}
	hits, violations := 0, 0
	maxDisp, maxErr := 0, 0.0
	for i, m := range approx.TopK {
		if r, ok := exactRank[m.Label]; ok && r < k {
			hits++
		}
		if exactDist[m.Label] > exact.TopK[k-1].Distance+opts.Params.Epsilon {
			violations++
		}
		if d := abs(exactRank[m.Label] - i); d > maxDisp {
			maxDisp = d
		}
		if e := math.Abs(m.Distance - exactDist[m.Label]); e > maxErr {
			maxErr = e
		}
	}

	audit, err := AuditRun(context.Background(), plan, target, approx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := audit.PrecisionAtK, float64(hits)/float64(k); got != want {
		t.Fatalf("PrecisionAtK=%v, ground truth %v", got, want)
	}
	if audit.GuaranteeViolations != violations {
		t.Fatalf("GuaranteeViolations=%d, ground truth %d", audit.GuaranteeViolations, violations)
	}
	if audit.MaxDisplacement != maxDisp {
		t.Fatalf("MaxDisplacement=%d, ground truth %d", audit.MaxDisplacement, maxDisp)
	}
	if audit.MaxAbsError != maxErr {
		t.Fatalf("MaxAbsError=%v, ground truth %v", audit.MaxAbsError, maxErr)
	}
	if audit.K != k || audit.Epsilon != opts.Params.Epsilon {
		t.Fatalf("audit header %+v", audit)
	}
	if audit.ExactKthDistance != exact.TopK[k-1].Distance {
		t.Fatalf("ExactKthDistance=%v, want %v", audit.ExactKthDistance, exact.TopK[k-1].Distance)
	}
	if len(audit.Candidates) != k {
		t.Fatalf("%d audit candidates for k=%d", len(audit.Candidates), k)
	}
	for i, c := range audit.Candidates {
		m := approx.TopK[i]
		if c.Label != m.Label || c.ApproxRank != i || c.ApproxDistance != m.Distance {
			t.Fatalf("candidate %d misaligned: %+v vs match %+v", i, c, m)
		}
		if c.ExactRank != exactRank[m.Label] || c.ExactDistance != exactDist[m.Label] {
			t.Fatalf("candidate %d exact side: %+v, want rank %d dist %v",
				i, c, exactRank[m.Label], exactDist[m.Label])
		}
	}
	// The audit's precision claim must be internally consistent with the
	// paper's contract on a completed run: violations can only come from
	// candidates outside the exact top-k.
	if audit.GuaranteeViolations > k-hits {
		t.Fatalf("%d violations but only %d misses", audit.GuaranteeViolations, k-hits)
	}

	// Determinism: a second audit of the same run is identical.
	audit2, err := AuditRun(context.Background(), plan, target, approx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if audit.PrecisionAtK != audit2.PrecisionAtK || audit.MeanAbsError != audit2.MeanAbsError {
		t.Fatal("audit is not deterministic")
	}
}

// TestGradeAuditCountsReconstructionViolations checks Guarantee 2 in the
// one grader: an exact answer grades clean, and a copy whose first match
// carries a histogram more than ε away in L1 from the candidate's exact
// histogram counts exactly one reconstruction violation, through both
// GradeAudit and AuditRun, without touching the separation count; and
// AuditRun grades at the run's ε₂ when one is set.
func TestGradeAuditCountsReconstructionViolations(t *testing.T) {
	tbl := testDataset(t, 20_000, 12, 6, 9)
	plan, err := New(tbl).Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	target, err := plan.ResolveTarget(Target{Uniform: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Params: testParams(), Executor: Scan}
	answer, err := plan.RunWithTarget(target, opts)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := plan.RunWithTarget(target, AuditReferenceOptions(opts, plan.NumCandidates()))
	if err != nil {
		t.Fatal(err)
	}
	eps := opts.Params.Epsilon

	clean, err := GradeAudit(answer, reference, eps)
	if err != nil {
		t.Fatal(err)
	}
	if clean.ReconstructionViolations != 0 || clean.GuaranteeViolations != 0 {
		t.Fatalf("exact answer graded with violations: %+v", clean)
	}

	tampered := *answer
	tampered.TopK = append([]Match(nil), answer.TopK...)
	h := tampered.TopK[0].Histogram
	moved := make([]float64, h.Groups())
	moved[0] = h.Total() // every row in one group
	tampered.TopK[0].Histogram = histogram.FromCounts(moved)
	if d := histogram.L1(tampered.TopK[0].Histogram, h); d <= eps {
		t.Fatalf("tampering moved the histogram only %.3f in L1, need > ε = %g", d, eps)
	}

	graded, err := GradeAudit(&tampered, reference, eps)
	if err != nil {
		t.Fatal(err)
	}
	audited, err := AuditRun(context.Background(), plan, target, &tampered, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*Audit{"GradeAudit": graded, "AuditRun": audited} {
		if a.ReconstructionViolations != 1 || a.GuaranteeViolations != 0 {
			t.Fatalf("%s: reconstruction %d, separation %d; want 1, 0",
				name, a.ReconstructionViolations, a.GuaranteeViolations)
		}
		for i, c := range a.Candidates {
			if c.ReconstructionViolation != (i == 0) {
				t.Fatalf("%s: candidate %d reconstruction flag %v", name, i, c.ReconstructionViolation)
			}
		}
	}

	// A run that claimed a looser ε₂ is graded at it: no L1 distance
	// between histograms reaches 2.
	loose := opts
	loose.Params.EpsilonReconstruct = 2
	a, err := AuditRun(context.Background(), plan, target, &tampered, loose)
	if err != nil {
		t.Fatal(err)
	}
	if a.ReconstructionViolations != 0 {
		t.Fatalf("graded at ε rather than the run's ε₂: %d reconstruction violations", a.ReconstructionViolations)
	}
}

func TestAuditRefusesEmptyAnswer(t *testing.T) {
	tbl := testDataset(t, 8_000, 10, 6, 3)
	eng := New(tbl)
	plan, err := eng.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	target, err := plan.ResolveTarget(Target{Uniform: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AuditRun(context.Background(), plan, target, nil, equivOptions(FastMatch, 1)); err == nil {
		t.Fatal("nil result audited")
	}
	if _, err := AuditRun(context.Background(), plan, target, &Result{}, equivOptions(FastMatch, 1)); err == nil {
		t.Fatal("empty result audited")
	}
}

func TestAuditHonorsContext(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	eng := New(tbl)
	plan, err := eng.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	target, err := plan.ResolveTarget(Target{Uniform: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := equivOptions(FastMatch, tbl.NumBlocks())
	approx, err := plan.RunWithTarget(target, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AuditRun(ctx, plan, target, approx, opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled audit returned %v, want ErrCanceled", err)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
