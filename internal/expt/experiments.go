package expt

import (
	"fmt"
	"io"
	"time"

	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
)

// Table4Row is one row of Table 4: per-query latencies and speedups over
// Scan for each approximate executor.
type Table4Row struct {
	Query     string
	ScanTime  time.Duration
	Times     map[string]time.Duration // executor name -> avg latency
	Speedups  map[string]float64       // executor name -> Scan/exec
	Violated  bool                     // any guarantee violation observed
	DeltaDist map[string]float64       // executor name -> Δd
}

// approxExecutors are the sampling-based approaches compared against Scan.
var approxExecutors = []engine.Executor{engine.ScanMatch, engine.SyncMatch, engine.FastMatch}

// Table4 regenerates Table 4: average speedups and latencies of
// ScanMatch/SyncMatch/FastMatch over Scan for every query.
func Table4(w *Workspace, reps int) ([]Table4Row, error) {
	var rows []Table4Row
	for _, q := range Queries {
		row := Table4Row{
			Query:     q.ID,
			Times:     make(map[string]time.Duration),
			Speedups:  make(map[string]float64),
			DeltaDist: make(map[string]float64),
		}
		scanTime, _, err := w.TimedRun(q.ID, engine.Scan, RunOverrides{}, reps)
		if err != nil {
			return nil, fmt.Errorf("%s scan: %w", q.ID, err)
		}
		row.ScanTime = scanTime
		for _, exec := range approxExecutors {
			avg, res, err := w.TimedRun(q.ID, exec, RunOverrides{Seed: 7}, reps)
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", q.ID, exec, err)
			}
			row.Times[exec.String()] = avg
			row.Speedups[exec.String()] = float64(scanTime) / float64(avg)
			dd, err := DeltaD(w, q.ID, res)
			if err != nil {
				return nil, err
			}
			row.DeltaDist[exec.String()] = dd
			a, err := w.audit(q.ID, exec, RunOverrides{Seed: 7}, res)
			if err != nil {
				return nil, err
			}
			row.Violated = row.Violated || a.GuaranteeViolations+a.ReconstructionViolations > 0
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintTable4 renders Table 4 in the paper's layout.
func FprintTable4(out io.Writer, rows []Table4Row) {
	fmt.Fprintf(out, "%-12s %10s | %22s %22s %22s | %s\n",
		"Query", "Scan(s)", "ScanMatch", "SyncMatch", "FastMatch", "guarantees")
	for _, r := range rows {
		cell := func(name string) string {
			return fmt.Sprintf("%6.2fx (%8.4fs)", r.Speedups[name], r.Times[name].Seconds())
		}
		ok := "ok"
		if r.Violated {
			ok = "VIOLATED"
		}
		fmt.Fprintf(out, "%-12s %9.4fs | %22s %22s %22s | %s\n",
			r.Query, r.ScanTime.Seconds(),
			cell("ScanMatch"), cell("SyncMatch"), cell("FastMatch"), ok)
	}
}

// SweepPoint is one (x, per-executor y) measurement in a figure sweep.
type SweepPoint struct {
	X      float64
	Times  map[string]time.Duration
	DeltaD map[string]float64
}

// Figure8 regenerates Figure 8 (and, via the DeltaD fields, Figure 9):
// the effect of ε on wall-clock latency and on Δd, per query.
func Figure8(w *Workspace, queryID string, epsilons []float64, reps int) ([]SweepPoint, error) {
	var points []SweepPoint
	for _, eps := range epsilons {
		p := SweepPoint{X: eps, Times: make(map[string]time.Duration), DeltaD: make(map[string]float64)}
		for _, exec := range approxExecutors {
			avg, res, err := w.TimedRun(queryID, exec, RunOverrides{Epsilon: eps, Seed: 11}, reps)
			if err != nil {
				return nil, fmt.Errorf("%s ε=%g %v: %w", queryID, eps, exec, err)
			}
			p.Times[exec.String()] = avg
			dd, err := DeltaD(w, queryID, res)
			if err != nil {
				return nil, err
			}
			p.DeltaD[exec.String()] = dd
		}
		points = append(points, p)
	}
	return points, nil
}

// Figure10 regenerates Figure 10: the effect of the lookahead parameter on
// FastMatch latency.
func Figure10(w *Workspace, queryID string, lookaheads []int, reps int) ([]SweepPoint, error) {
	var points []SweepPoint
	for _, la := range lookaheads {
		avg, _, err := w.TimedRun(queryID, engine.FastMatch, RunOverrides{Lookahead: la, Seed: 13}, reps)
		if err != nil {
			return nil, fmt.Errorf("%s lookahead=%d: %w", queryID, la, err)
		}
		points = append(points, SweepPoint{
			X:     float64(la),
			Times: map[string]time.Duration{"FastMatch": avg},
		})
	}
	return points, nil
}

// Figure11 regenerates Figure 11: the effect of δ on latency.
func Figure11(w *Workspace, queryID string, deltas []float64, reps int) ([]SweepPoint, error) {
	var points []SweepPoint
	for _, d := range deltas {
		p := SweepPoint{X: d, Times: make(map[string]time.Duration)}
		for _, exec := range approxExecutors {
			avg, _, err := w.TimedRun(queryID, exec, RunOverrides{Delta: d, Seed: 17}, reps)
			if err != nil {
				return nil, fmt.Errorf("%s δ=%g %v: %w", queryID, d, exec, err)
			}
			p.Times[exec.String()] = avg
		}
		points = append(points, p)
	}
	return points, nil
}

// FprintSweep renders a sweep as aligned columns.
func FprintSweep(out io.Writer, xName string, points []SweepPoint, withDeltaD bool) {
	if len(points) == 0 {
		return
	}
	names := make([]string, 0, len(points[0].Times))
	for _, exec := range approxExecutors {
		if _, ok := points[0].Times[exec.String()]; ok {
			names = append(names, exec.String())
		}
	}
	fmt.Fprintf(out, "%-10s", xName)
	for _, n := range names {
		fmt.Fprintf(out, " %14s", n+"(s)")
		if withDeltaD {
			fmt.Fprintf(out, " %12s", n+" Δd")
		}
	}
	fmt.Fprintln(out)
	for _, p := range points {
		fmt.Fprintf(out, "%-10g", p.X)
		for _, n := range names {
			fmt.Fprintf(out, " %14.4f", p.Times[n].Seconds())
			if withDeltaD {
				fmt.Fprintf(out, " %12.4f", p.DeltaD[n])
			}
		}
		fmt.Fprintln(out)
	}
}

// Table5Row compares the exact top-k under L1 and L2 (Table 5).
type Table5Row struct {
	Query string
	// Overlap is |M*(L1) ∩ M*(L2)| / k.
	Overlap float64
	// RelDistDiff is the relative difference in total L1 distance between
	// the two metrics' top-k sets.
	RelDistDiff float64
}

// Table5 regenerates Table 5 on the FLIGHTS queries.
func Table5(w *Workspace) ([]Table5Row, error) {
	var rows []Table5Row
	for _, q := range Queries {
		if q.Dataset != "flights" {
			continue
		}
		l1Top, l1Dist, err := w.ExactTopK(q.ID, histogram.MetricL1, w.Cfg.Sigma)
		if err != nil {
			return nil, err
		}
		l2Top, _, err := w.ExactTopK(q.ID, histogram.MetricL2, w.Cfg.Sigma)
		if err != nil {
			return nil, err
		}
		inL1 := map[int]bool{}
		var sumL1 float64
		for _, r := range l1Top {
			inL1[r.ID] = true
			sumL1 += r.Distance
		}
		overlap, sumL2inL1 := 0, 0.0
		for _, r := range l2Top {
			if inL1[r.ID] {
				overlap++
			}
			sumL2inL1 += l1Dist[r.ID] // L1 distance of the L2 top-k
		}
		rel := 0.0
		if sumL1 > 0 {
			rel = (sumL2inL1 - sumL1) / sumL1
		}
		rows = append(rows, Table5Row{
			Query:       q.ID,
			Overlap:     float64(overlap) / float64(len(l1Top)),
			RelDistDiff: rel,
		})
	}
	return rows, nil
}

// FprintTable5 renders Table 5.
func FprintTable5(out io.Writer, rows []Table5Row) {
	fmt.Fprintf(out, "%-12s %18s %24s\n", "Query", "|M*(l1)∩M*(l2)|/k", "relative distance diff")
	for _, r := range rows {
		fmt.Fprintf(out, "%-12s %18.2f %24.3f\n", r.Query, r.Overlap, r.RelDistDiff)
	}
}

// DeltaD computes the total relative error in visual distance (§5.3):
//
//	Δd = (Σ_{i∈M} d(r*_i, q) − Σ_{j∈M*} d(r*_j, q)) / Σ_{j∈M*} d(r*_j, q)
//
// using exact distances for the returned set M. M* is the exact top-k
// over candidates meeting the selectivity threshold, so Δd can be
// negative when M legitimately includes a low-selectivity candidate that
// Scan pruned.
func DeltaD(w *Workspace, queryID string, res *engine.Result) (float64, error) {
	exactTop, dist, err := w.ExactTopK(queryID, histogram.MetricL1, w.Cfg.Sigma)
	if err != nil {
		return 0, err
	}
	var sumTrue float64
	for _, r := range exactTop {
		sumTrue += r.Distance
	}
	if sumTrue == 0 {
		return 0, nil
	}
	var sumGot float64
	for _, m := range res.TopK {
		sumGot += dist[m.ID]
	}
	return (sumGot - sumTrue) / sumTrue, nil
}

// guaranteeCell is one cell of a guarantee campaign: one query run
// repeatedly by one sampling executor, every run graded by the one
// grader (Workspace.audit).
type guaranteeCell struct {
	query, executor string
	// runs counts graded runs; separation and reconstruction count the
	// runs that violated Guarantee 1 or Guarantee 2.
	runs, separation, reconstruction int
	// fractionRead is the mean share of the table's tuples a run read.
	fractionRead float64
}

// GuaranteeCheck runs every listed query (all of Table 3 when queries is
// nil) `runs` times with each sampling executor under ov, run r at seed
// 1000r+7, grades each run against both guarantees, and writes one line
// per (query, executor) cell to out, then the totals — the paper's §5.4
// check, which observed zero violations across all runs.
func GuaranteeCheck(w *Workspace, out io.Writer, queries []string, ov RunOverrides, runs int) error {
	cells, err := guaranteeCampaign(w, queries, ov, runs)
	if err != nil {
		return err
	}
	var sep, rec, total int
	fmt.Fprintf(out, "%-12s %-10s %6s %11s %15s %8s\n",
		"Query", "Executor", "runs", "separation", "reconstruction", "read")
	for _, c := range cells {
		fmt.Fprintf(out, "%-12s %-10s %6d %11d %15d %7.1f%%\n",
			c.query, c.executor, c.runs, c.separation, c.reconstruction, 100*c.fractionRead)
		sep, rec, total = sep+c.separation, rec+c.reconstruction, total+c.runs
	}
	fmt.Fprintf(out, "violations: %d separation, %d reconstruction / %d runs\n", sep, rec, total)
	return nil
}

// guaranteeCampaign runs and grades GuaranteeCheck's matrix.
func guaranteeCampaign(w *Workspace, queries []string, ov RunOverrides, runs int) ([]guaranteeCell, error) {
	if queries == nil {
		for _, q := range Queries {
			queries = append(queries, q.ID)
		}
	}
	var cells []guaranteeCell
	for _, qid := range queries {
		st, err := w.state(qid)
		if err != nil {
			return nil, err
		}
		for _, exec := range approxExecutors {
			cell := guaranteeCell{query: qid, executor: exec.String(), runs: runs}
			for r := 0; r < runs; r++ {
				ov.Seed = int64(1000*r + 7)
				res, err := w.Run(qid, exec, ov)
				if err != nil {
					return nil, fmt.Errorf("%s %v run %d: %w", qid, exec, r, err)
				}
				a, err := w.audit(qid, exec, ov, res)
				if err != nil {
					return nil, fmt.Errorf("%s %v run %d: %w", qid, exec, r, err)
				}
				if a.GuaranteeViolations > 0 {
					cell.separation++
				}
				if a.ReconstructionViolations > 0 {
					cell.reconstruction++
				}
				cell.fractionRead += float64(res.IO.TuplesRead) / float64(st.total)
			}
			if runs > 0 {
				cell.fractionRead /= float64(runs)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// SigmaZeroRow captures the σ=0 pathology measurement (§5.4 "When
// approximation performs poorly").
type SigmaZeroRow struct {
	Query                string
	Executor             string
	WithSigma, ZeroSigma time.Duration
	Slowdown             float64
}

// SigmaZero measures the TAXI queries with and without stage-1 pruning.
// With σ=0, stages 2 and 3 must chase thousands of near-empty candidates.
func SigmaZero(w *Workspace, reps int) ([]SigmaZeroRow, error) {
	var rows []SigmaZeroRow
	for _, qid := range []string{"taxi-q1", "taxi-q2"} {
		for _, exec := range []engine.Executor{engine.ScanMatch, engine.FastMatch} {
			with, _, err := w.TimedRun(qid, exec, RunOverrides{Seed: 3}, reps)
			if err != nil {
				return nil, err
			}
			zero, _, err := w.TimedRun(qid, exec, RunOverrides{SigmaZero: true, Seed: 3}, reps)
			if err != nil {
				return nil, err
			}
			rows = append(rows, SigmaZeroRow{
				Query: qid, Executor: exec.String(),
				WithSigma: with, ZeroSigma: zero,
				Slowdown: float64(zero) / float64(with),
			})
		}
	}
	return rows, nil
}

// FprintSigmaZero renders the σ=0 comparison.
func FprintSigmaZero(out io.Writer, rows []SigmaZeroRow) {
	fmt.Fprintf(out, "%-10s %-10s %14s %14s %10s\n", "Query", "Executor", "σ=default(s)", "σ=0(s)", "slowdown")
	for _, r := range rows {
		fmt.Fprintf(out, "%-10s %-10s %14.4f %14.4f %9.2fx\n",
			r.Query, r.Executor, r.WithSigma.Seconds(), r.ZeroSigma.Seconds(), r.Slowdown)
	}
}
