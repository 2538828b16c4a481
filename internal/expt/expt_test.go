package expt

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
)

// smallWorkspace builds a reduced workspace for tests (≈80k rows/dataset).
func smallWorkspace(t testing.TB) *Workspace {
	t.Helper()
	w, err := NewWorkspace(Config{
		Rows: 80_000, Seed: 5, Reps: 1, Epsilon: 0.12, BlockSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestQueriesMatchTable3(t *testing.T) {
	if len(Queries) != 9 {
		t.Fatalf("query suite has %d entries, Table 3 has 9", len(Queries))
	}
	ks := map[string]int{"flights-q3": 5, "police-q3": 5}
	for _, q := range Queries {
		wantK := 10
		if k, ok := ks[q.ID]; ok {
			wantK = k
		}
		if q.K != wantK {
			t.Errorf("%s has k=%d, want %d", q.ID, q.K, wantK)
		}
	}
}

func TestWorkspacePreparesAllQueries(t *testing.T) {
	w := smallWorkspace(t)
	for _, q := range Queries {
		target, err := w.Target(q.ID)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if target.Total() <= 0 {
			t.Fatalf("%s: empty target", q.ID)
		}
	}
}

func TestWorkspaceRunAllQueriesAllExecutors(t *testing.T) {
	if testing.Short() {
		t.Skip("workspace suite skipped in -short mode")
	}
	w := smallWorkspace(t)
	for _, q := range Queries {
		for _, exec := range []engine.Executor{engine.Scan, engine.ScanMatch, engine.SyncMatch, engine.FastMatch} {
			res, err := w.Run(q.ID, exec, RunOverrides{Seed: 2})
			if err != nil {
				t.Fatalf("%s %v: %v", q.ID, exec, err)
			}
			if len(res.TopK) == 0 {
				t.Fatalf("%s %v: empty answer", q.ID, exec)
			}
		}
	}
}

func TestExactTopKAndDeltaD(t *testing.T) {
	w := smallWorkspace(t)
	top, dist, err := w.ExactTopK("flights-q1", histogram.MetricL1, w.Cfg.Sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 {
		t.Fatalf("exact top-k size %d", len(top))
	}
	if len(dist) != 347 {
		t.Fatalf("dist vector size %d", len(dist))
	}
	// A result exactly equal to the true top-k has Δd = 0.
	res, err := w.Run("flights-q1", engine.Scan, RunOverrides{})
	if err != nil {
		t.Fatal(err)
	}
	dd, err := DeltaD(w, "flights-q1", res)
	if err != nil {
		t.Fatal(err)
	}
	if dd != 0 {
		t.Fatalf("Scan Δd = %g, want 0", dd)
	}
}

func TestAuditExactResultHasNoViolations(t *testing.T) {
	w := smallWorkspace(t)
	res, err := w.Run("police-q1", engine.Scan, RunOverrides{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.audit("police-q1", engine.Scan, RunOverrides{}, res)
	if err != nil {
		t.Fatal(err)
	}
	if a.GuaranteeViolations != 0 || a.ReconstructionViolations != 0 {
		t.Fatalf("exact Scan result graded with violations: separation %d, reconstruction %d",
			a.GuaranteeViolations, a.ReconstructionViolations)
	}
}

func TestApproximateRunsMeetGuarantees(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	w := smallWorkspace(t)
	for _, qid := range []string{"flights-q1", "police-q2"} {
		ov := RunOverrides{Seed: 9}
		res, err := w.Run(qid, engine.FastMatch, ov)
		if err != nil {
			t.Fatal(err)
		}
		a, err := w.audit(qid, engine.FastMatch, ov, res)
		if err != nil {
			t.Fatal(err)
		}
		if a.GuaranteeViolations != 0 || a.ReconstructionViolations != 0 {
			t.Errorf("%s: FastMatch violated guarantees: separation %d, reconstruction %d",
				qid, a.GuaranteeViolations, a.ReconstructionViolations)
		}
	}
}

// TestGuaranteeCampaign is the reduced guarantee campaign: the three
// sampling executors × seeded runs on two matrices, every run graded
// against both guarantees by engine.AuditRun. At the workspace defaults
// the samplers read the whole 400k-row tables, so those cells grade
// exact answers; the ε = 0.4, σ = 0.01 cells stop sampling early, so
// they grade real estimates. Seeds are fixed: the outcome is
// deterministic. GuaranteeCheck prints this same matrix.
func TestGuaranteeCampaign(t *testing.T) {
	w, err := NewWorkspace(Config{Rows: 400_000, Seed: 5, Reps: 1, Epsilon: 0.12, BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 10
	early := RunOverrides{Epsilon: 0.4, Sigma: 0.01}
	for _, c := range []struct {
		queries []string
		ov      RunOverrides
		early   bool
	}{
		{[]string{"flights-q1", "police-q2"}, RunOverrides{}, false},
		{[]string{"flights-q3", "police-q1", "police-q2"}, early, true},
	} {
		cells, err := guaranteeCampaign(w, c.queries, c.ov, runs)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != len(c.queries)*len(approxExecutors) {
			t.Fatalf("%d cells for %d queries", len(cells), len(c.queries))
		}
		for _, cell := range cells {
			t.Logf("%+v", cell)
			if cell.runs != runs {
				t.Fatalf("%s %s graded %d runs, want %d", cell.query, cell.executor, cell.runs, runs)
			}
			if cell.separation != 0 || cell.reconstruction != 0 {
				t.Errorf("%s %s: %d separation and %d reconstruction violations in %d runs",
					cell.query, cell.executor, cell.separation, cell.reconstruction, runs)
			}
			if c.early && cell.fractionRead >= 1 {
				t.Errorf("%s %s at %+v read %.1f%% of the table; the cell must stop sampling early",
					cell.query, cell.executor, c.ov, 100*cell.fractionRead)
			}
		}
	}
	var buf bytes.Buffer
	if err := GuaranteeCheck(w, &buf, []string{"police-q1"}, early, 1); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "violations: 0 separation, 0 reconstruction / 3 runs") {
		t.Fatalf("GuaranteeCheck report:\n%s", out)
	}
}

func TestTable5Shape(t *testing.T) {
	w := smallWorkspace(t)
	rows, err := Table5(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table 5 has %d rows, want 4 flights queries", len(rows))
	}
	for _, r := range rows {
		if r.Overlap < 0 || r.Overlap > 1 {
			t.Errorf("%s overlap %g out of range", r.Query, r.Overlap)
		}
		// The paper reports ≥ 0.6 overlap and ≤ 4% relative difference;
		// on synthetic data we check the weaker structural property that
		// the L2 top-k is never L1-better than the L1 top-k.
		if r.RelDistDiff < -1e-9 {
			t.Errorf("%s: L2 top-k beat L1 top-k in L1 distance (%g)", r.Query, r.RelDistDiff)
		}
	}
	var buf bytes.Buffer
	FprintTable5(&buf, rows)
	if !strings.Contains(buf.String(), "flights-q1") {
		t.Fatal("Table 5 rendering missing rows")
	}
}

func TestSweepRendering(t *testing.T) {
	points := []SweepPoint{
		{
			X: 0.04,
			Times: map[string]time.Duration{
				"ScanMatch": time.Second, "SyncMatch": 2 * time.Second, "FastMatch": 300 * time.Millisecond,
			},
			DeltaD: map[string]float64{"ScanMatch": 0.01, "SyncMatch": 0.02, "FastMatch": 0.005},
		},
	}
	var buf bytes.Buffer
	FprintSweep(&buf, "epsilon", points, true)
	out := buf.String()
	for _, want := range []string{"epsilon", "FastMatch(s)", "0.3000", "0.0050"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep rendering missing %q in:\n%s", want, out)
		}
	}
	FprintSweep(&buf, "x", nil, false) // empty input: no panic
}

func TestFigureSweepsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test skipped in -short mode")
	}
	w := smallWorkspace(t)
	f8, err := Figure8(w, "police-q1", []float64{0.15, 0.25}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8) != 2 {
		t.Fatalf("figure 8 points = %d", len(f8))
	}
	f10, err := Figure10(w, "police-q1", []int{16, 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f10) != 2 {
		t.Fatalf("figure 10 points = %d", len(f10))
	}
	f11, err := Figure11(w, "police-q1", []float64{0.01, 0.05}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f11) != 2 {
		t.Fatalf("figure 11 points = %d", len(f11))
	}
}

func TestTable4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("table 4 test skipped in -short mode")
	}
	w := smallWorkspace(t)
	// Restrict to a fast subset by running the helper per query instead of
	// the full suite: take just the police queries via a trimmed copy.
	rows, err := Table4(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Queries) {
		t.Fatalf("table 4 rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, exec := range []string{"ScanMatch", "SyncMatch", "FastMatch"} {
			if r.Times[exec] <= 0 {
				t.Errorf("%s %s: no time recorded", r.Query, exec)
			}
		}
	}
	var buf bytes.Buffer
	FprintTable4(&buf, rows)
	if !strings.Contains(buf.String(), "taxi-q2") {
		t.Fatal("Table 4 rendering missing rows")
	}
}
