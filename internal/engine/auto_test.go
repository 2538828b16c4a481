package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"fastmatch/internal/core"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// TestResolveExecutor pins Auto's rule on the shapes the benchmark and
// the defaults send: need = SamplesFor(groups, ε/2, δ/6) against σN/4.
func TestResolveExecutor(t *testing.T) {
	opts := func(exec Executor, eps, sigma float64) Options {
		o := DefaultOptions(1)
		o.Executor = exec
		o.Params.Epsilon, o.Params.Sigma = eps, sigma
		return o
	}
	cases := []struct {
		name         string
		opts         Options
		rows, groups int
		coordinated  bool
		want         Executor
		wantNeed     int
	}{
		// sample-20m: need 18,426 against σN = 16,000.
		{"sample-20m", opts(Auto, 0.1, 0.0008), 20_000_000, 24, false, Scan, 18_426},
		// The default ε = 0.04 needs 115,163 samples: σN reaches that
		// only at 144M rows, and σN/4 at 576M.
		{"default-eps-143m", opts(Auto, 0.04, 0.0008), 143_000_000, 24, false, Scan, 115_163},
		{"default-eps-1m", opts(Auto, 0.04, 0.0008), 1_000_000, 24, false, Scan, 115_163},
		{"default-eps-600m", opts(Auto, 0.04, 0.0008), 600_000_000, 24, false, FastMatch, 115_163},
		{"sample-20m-shape-at-200m", opts(Auto, 0.1, 0.0008), 200_000_000, 24, false, FastMatch, 18_426},
		{"sigma-zero", opts(Auto, 0.1, 0), 2_000_000_000, 24, false, Scan, 18_426},
		{"empty-table", opts(Auto, 0.1, 0.0008), 0, 24, false, Scan, 18_426},
		{"coordinated-fastmatch", opts(FastMatch, 0.1, 0.0008), 20_000_000, 24, true, ParallelScan, 0},
		{"coordinated-auto", opts(Auto, 0.1, 0.0008), 2_000_000_000, 24, true, ParallelScan, 0},
		{"explicit-fastmatch", opts(FastMatch, 0.04, 0.0008), 1_000_000, 24, false, FastMatch, 0},
		{"explicit-scanmatch", opts(ScanMatch, 0.1, 0.0008), 2_000_000_000, 24, false, ScanMatch, 0},
		{"explicit-parallelscan", opts(ParallelScan, 0.1, 0.0008), 2_000_000_000, 24, false, ParallelScan, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, d := ResolveExecutor(tc.opts, tc.rows, tc.groups, tc.coordinated)
			if got != tc.want {
				t.Fatalf("resolved %v, want %v", got, tc.want)
			}
			if tc.opts.Executor != Auto || tc.coordinated {
				if d != nil {
					t.Fatalf("decision %+v reported for a request that did not ask for auto", d)
				}
				return
			}
			if d == nil {
				t.Fatal("auto resolved without a decision")
			}
			sigmaRows := tc.opts.Params.Sigma * float64(tc.rows)
			if d.Need != tc.wantNeed || d.SigmaRows != sigmaRows || d.C != autoScanRatio {
				t.Fatalf("decision %+v, want need %d, σN %g, c %d", d, tc.wantNeed, sigmaRows, autoScanRatio)
			}
			if sigmaRows > 0 && math.Abs(d.Ratio-float64(d.Need)/sigmaRows) > 1e-12 {
				t.Fatalf("ratio %g, want need/σN", d.Ratio)
			}
		})
	}
}

func TestParseExecutor(t *testing.T) {
	for e := Scan; e <= Auto; e++ {
		for _, name := range []string{e.String(), strings.ToLower(e.String()), strings.ToUpper(e.String())} {
			got, err := ParseExecutor(name)
			if err != nil || got != e {
				t.Fatalf("ParseExecutor(%q) = %v, %v; want %v", name, got, err, e)
			}
		}
	}
	if _, err := ParseExecutor("warp"); err == nil {
		t.Fatal("unknown executor accepted")
	} else if ie, ok := err.(*InvalidOptionsError); !ok || ie.Field != "Executor" {
		t.Fatalf("unknown executor error %T %v, want *InvalidOptionsError on Executor", err, err)
	}
}

// TestAutoPicksSamplerWhenItCanSkip raises σ on a 400k-row table until
// need ≪ σN/4: Auto must run FastMatch, byte for byte what an explicit
// FastMatch run with the same seed returns, and say so on its run span.
func TestAutoPicksSamplerWhenItCanSkip(t *testing.T) {
	tbl := testDataset(t, 400_000, 4, 8, 3)
	eng := New(tbl)
	plan, err := eng.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{
		K: 1, Epsilon: 0.10, Delta: 0.05, Sigma: 0.15,
		Stage1Samples: 10_000, Metric: histogram.MetricL1,
	}
	run := func(exec Executor, tr *trace.Trace) string {
		res, err := plan.RunContext(context.Background(), Target{Uniform: true}, Options{
			Params: params, Executor: exec, Lookahead: 64, StartBlock: -1, Seed: 17, Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return canonicalAnswer(t, res)
	}
	tr := trace.New("auto")
	auto := run(Auto, tr)
	if want := run(FastMatch, nil); auto != want {
		t.Fatalf("auto result differs from explicit FastMatch:\nauto: %s\nfast: %s", auto, want)
	}
	span := tr.Snapshot().Find("run")
	if span == nil || span.Attrs["executor"] != "FastMatch" {
		t.Fatalf("run span does not name FastMatch: %+v", span)
	}
	need := histogram.MetricL1.SamplesFor(8, 0.05, 0.05/6)
	if span.Attrs["auto_need"] != need || span.Attrs["auto_c"] != float64(autoScanRatio) {
		t.Fatalf("run span decision attrs %v, want need %d", span.Attrs, need)
	}
	if ratio := span.Attrs["auto_ratio"].(float64); ratio*autoScanRatio >= 1 {
		t.Fatalf("ratio %g is not in the sampling regime", ratio)
	}
}
