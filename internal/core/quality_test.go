package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"fastmatch/internal/histogram"
)

// qualityOffDigests holds the SHA-256 of each perturbation case's answer
// (answerDigest) as HistSim returned it before quality collection became
// unconditional, when it still ran with collection off. The answers
// computed today must match them byte for byte: collection reads the
// estimates, it never steers them.
func qualityOffDigests(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("testdata/quality_off_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var d map[string]string
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// answerDigest hashes everything a Result answers with except its quality
// report: flags, pruned set, run stats, the ranking's exact distance bits
// and every reconstructed histogram's counts.
func answerDigest(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "exact=%v partial=%v pruned=%v stats=%+v\n", res.Exact, res.Partial, res.Pruned, res.Stats)
	for _, rk := range res.TopK {
		fmt.Fprintf(h, "top %d %x\n", rk.ID, math.Float64bits(rk.Distance))
	}
	ids := make([]int, 0, len(res.Hists))
	for id := range res.Hists {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(h, "hist %d:", id)
		hh := res.Hists[id]
		for g := 0; g < hh.Groups(); g++ {
			fmt.Fprintf(h, " %x", math.Float64bits(hh.Count(g)))
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runDefault runs the suite's reference population and seed.
func runDefault(t *testing.T, params Params) *Result {
	t.Helper()
	pop := makePopulation(t, 21, 150_000, 16, 8, 0.1)
	res, err := Run(pop.sampler(t, 5), pop.targets, params)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQualityCollectionDoesNotPerturbAnswer(t *testing.T) {
	want := qualityOffDigests(t)
	krange := defaultParams()
	krange.KRange.KMin, krange.KRange.KMax = 2, 5
	l2 := defaultParams()
	l2.Metric = histogram.MetricL2
	got := map[string]*Result{
		"default": runDefault(t, defaultParams()),
		"krange":  runDefault(t, krange),
		"l2":      runDefault(t, l2),
	}
	// A population small enough to exhaust: the exact termination path.
	pop := makePopulation(t, 2, 3000, 12, 6, 0)
	exact := defaultParams()
	exact.Epsilon, exact.Delta = 0.01, 0.001
	res, err := Run(pop.sampler(t, 3), pop.targets, exact)
	if err != nil {
		t.Fatal(err)
	}
	got["exact"] = res
	if len(got) != len(want) {
		t.Fatalf("%d cases, %d reference digests", len(got), len(want))
	}
	for name, res := range got {
		if res.Quality == nil {
			t.Fatalf("%s: run returned no Quality report", name)
		}
		if d := answerDigest(res); d != want[name] {
			t.Errorf("%s: answer digest %s, quality-off reference %s", name, d, want[name])
		}
	}
}

func TestQualityReportAnatomy(t *testing.T) {
	res := runDefault(t, defaultParams())
	q := res.Quality
	if q.Termination != TerminationGuarantee && q.Termination != TerminationExact {
		t.Fatalf("completed run terminated %q", q.Termination)
	}
	if !q.GuaranteeMet || q.Truncated {
		t.Fatalf("completed run: GuaranteeMet=%v Truncated=%v", q.GuaranteeMet, q.Truncated)
	}
	if q.Rounds != res.Stats.Rounds {
		t.Fatalf("Quality.Rounds=%d, Stats.Rounds=%d", q.Rounds, res.Stats.Rounds)
	}
	if q.PrunedCandidates != res.Stats.PrunedCandidates {
		t.Fatalf("Quality.PrunedCandidates=%d, Stats=%d", q.PrunedCandidates, res.Stats.PrunedCandidates)
	}
	if got, want := q.FinalSlack, q.FinalGap-defaultParams().Epsilon; math.Abs(got-want) > 1e-12 {
		t.Fatalf("FinalSlack=%g, want FinalGap-ε=%g", got, want)
	}
	if len(q.Matches) != len(res.TopK) {
		t.Fatalf("%d quality matches for %d TopK entries", len(q.Matches), len(res.TopK))
	}
	for i, m := range q.Matches {
		rk := res.TopK[i]
		if m.ID != rk.ID || m.Distance != rk.Distance {
			t.Fatalf("match %d: quality (id=%d d=%g) misaligned with TopK (id=%d d=%g)",
				i, m.ID, m.Distance, rk.ID, rk.Distance)
		}
		if m.Samples <= 0 {
			t.Fatalf("match %d: no samples behind the estimate", i)
		}
		if !(m.CI > 0 && m.CI <= ciDiameter) || math.IsNaN(m.CI) {
			t.Fatalf("match %d: CI=%g outside (0, %d]", i, m.CI, ciDiameter)
		}
	}
}

func TestQualitySnapshotsCarryConvergenceTelemetry(t *testing.T) {
	pop := makePopulation(t, 23, 150_000, 16, 8, 0.1)
	params := defaultParams()
	var snaps []Snapshot
	_, err := RunObserved(pop.sampler(t, 9), pop.targets, params, func(s Snapshot) {
		snaps = append(snaps, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots emitted")
	}
	for i, s := range snaps {
		if got, want := s.Slack, s.Gap-params.Epsilon; math.Abs(got-want) > 1e-12 {
			t.Fatalf("snapshot %d: Slack=%g, want Gap-ε=%g", i, got, want)
		}
		for j, cq := range s.TopK {
			if !(cq.CI > 0 && cq.CI <= ciDiameter) || cq.Samples <= 0 {
				t.Fatalf("snapshot %d entry %d: CI=%g over %d samples", i, j, cq.CI, cq.Samples)
			}
		}
		if i == 0 && s.Churn != 0 {
			t.Fatalf("first emission churn=%d, want 0", s.Churn)
		}
	}
	// Telemetry must not depend on an observer being attached: the same
	// run without one yields the same final churn total.
	res, err := Run(pop.sampler(t, 9), pop.targets, params)
	if err != nil {
		t.Fatal(err)
	}
	var churn int
	for _, s := range snaps {
		churn += s.Churn
	}
	if res.Quality.Churn != churn {
		t.Fatalf("observerless churn=%d, observed emissions sum to %d", res.Quality.Churn, churn)
	}
}

func TestQualityTruncatedRun(t *testing.T) {
	pop := makePopulation(t, 25, 200_000, 12, 6, 0)
	params := defaultParams()
	params.Stage1Samples = 5_000
	s := &interruptingSampler{SliceSampler: pop.sampler(t, 3), after: 2}
	res, err := Run(s, pop.targets, params)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	q := res.Quality
	if q == nil {
		t.Fatal("truncated run returned no Quality report")
	}
	if q.Termination != TerminationTruncated || !q.Truncated || q.GuaranteeMet {
		t.Fatalf("truncated run: Termination=%q Truncated=%v GuaranteeMet=%v",
			q.Termination, q.Truncated, q.GuaranteeMet)
	}
	if len(q.Matches) != len(res.TopK) {
		t.Fatalf("%d quality matches for %d TopK entries", len(q.Matches), len(res.TopK))
	}
}

func TestQualityExactRun(t *testing.T) {
	pop := makePopulation(t, 2, 3000, 12, 6, 0)
	params := defaultParams()
	params.Epsilon = 0.01
	params.Delta = 0.001
	res, err := Run(pop.sampler(t, 3), pop.targets, params)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("tiny dataset should exhaust to an exact answer")
	}
	if res.Quality.Termination != TerminationExact || !res.Quality.GuaranteeMet {
		t.Fatalf("exact run: %+v", res.Quality)
	}
}
