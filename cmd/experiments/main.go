// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on the synthetic datasets:
//
//	table4      — speedups of ScanMatch/SyncMatch/FastMatch over Scan
//	fig8        — wall time vs ε (per query)
//	fig9        — Δd vs ε (per query)
//	fig10       — wall time vs lookahead
//	fig11       — wall time vs δ
//	table5      — L1 vs L2 top-k overlap (FLIGHTS queries)
//	guarantees  — guarantee-violation count over repeated runs
//	sigma0      — the σ=0 pathology (§5.4)
//	queries     — the Table 3 query suite
//	all         — everything above
//
// Usage:
//
//	go run ./cmd/experiments -exp table4 [-rows 4000000] [-reps 3] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"fastmatch/internal/expt"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (table4, fig8, fig9, fig10, fig11, table5, guarantees, sigma0, queries, all)")
	rows := flag.Int("rows", 4_000_000, "rows per synthetic dataset")
	reps := flag.Int("reps", 3, "repetitions per measurement")
	seed := flag.Int64("seed", 1, "generation seed")
	// The engine treats seed 0 as fixed, so without an explicit per-run
	// seed every harness invocation would start each scan at the same
	// block; default to the wall clock and let -runseed pin it.
	runSeed := flag.Int64("runseed", time.Now().UnixNano(), "per-run scan-start seed (0 = deterministic starts)")
	query := flag.String("query", "", "restrict figure sweeps to one query id (default: a representative subset)")
	guaranteeRuns := flag.Int("guarantee-runs", 5, "runs per query and sampling executor for the guarantee check")
	flag.Parse()

	fmt.Printf("# FastMatch experiment harness\n")
	fmt.Printf("# datasets: flights/taxi/police @ %d rows each (seed %d, runseed %d)\n", *rows, *seed, *runSeed)
	start := time.Now()
	w, err := expt.NewWorkspace(expt.Config{Rows: *rows, Seed: *seed, Reps: *reps, RunSeed: *runSeed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# workspace built in %v (ε=%g δ=%g σ=%g lookahead=%d blockSize=%d)\n\n",
		time.Since(start).Round(time.Millisecond),
		w.Cfg.Epsilon, w.Cfg.Delta, w.Cfg.Sigma, w.Cfg.Lookahead, w.Cfg.BlockSize)

	run := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if run("queries") {
		ran = true
		fmt.Println("== Table 3: query suite ==")
		fmt.Printf("%-12s %-8s %-10s %-16s %3s\n", "Query", "Dataset", "Z", "X", "k")
		for _, q := range expt.Queries {
			fmt.Printf("%-12s %-8s %-10s %-16s %3d\n", q.ID, q.Dataset, q.Z, q.X, q.K)
		}
		fmt.Println()
	}

	if run("table4") {
		ran = true
		fmt.Println("== Table 4: average speedups and latencies over Scan ==")
		rows, err := expt.Table4(w, *reps)
		if err != nil {
			log.Fatal(err)
		}
		expt.FprintTable4(os.Stdout, rows)
		fmt.Println()
	}

	sweepQueries := []string{"flights-q1", "flights-q2", "taxi-q1", "police-q2"}
	if *query != "" {
		sweepQueries = strings.Split(*query, ",")
	}

	if run("fig8") || run("fig9") {
		ran = true
		fmt.Println("== Figures 8 & 9: effect of ε on latency and Δd ==")
		eps := []float64{0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50}
		for _, qid := range sweepQueries {
			fmt.Printf("-- %s --\n", qid)
			points, err := expt.Figure8(w, qid, eps, *reps)
			if err != nil {
				log.Fatal(err)
			}
			expt.FprintSweep(os.Stdout, "epsilon", points, true)
		}
		fmt.Println()
	}

	if run("fig10") {
		ran = true
		fmt.Println("== Figure 10: effect of lookahead on FastMatch latency ==")
		las := []int{8, 32, 128, 512, 1024, 2048}
		for _, qid := range sweepQueries {
			fmt.Printf("-- %s --\n", qid)
			points, err := expt.Figure10(w, qid, las, *reps)
			if err != nil {
				log.Fatal(err)
			}
			expt.FprintSweep(os.Stdout, "lookahead", points, false)
		}
		fmt.Println()
	}

	if run("fig11") {
		ran = true
		fmt.Println("== Figure 11: effect of δ on latency ==")
		deltas := []float64{0.005, 0.01, 0.02, 0.05}
		for _, qid := range sweepQueries {
			fmt.Printf("-- %s --\n", qid)
			points, err := expt.Figure11(w, qid, deltas, *reps)
			if err != nil {
				log.Fatal(err)
			}
			expt.FprintSweep(os.Stdout, "delta", points, false)
		}
		fmt.Println()
	}

	if run("table5") {
		ran = true
		fmt.Println("== Table 5: top-k agreement between L1 and L2 (FLIGHTS) ==")
		rows, err := expt.Table5(w)
		if err != nil {
			log.Fatal(err)
		}
		expt.FprintTable5(os.Stdout, rows)
		fmt.Println()
	}

	if run("guarantees") {
		ran = true
		fmt.Printf("== Guarantee check (§5.4, δ = %g): runs violating each guarantee, per query and sampling executor ==\n", w.Cfg.Delta)
		if err := expt.GuaranteeCheck(w, os.Stdout, nil, expt.RunOverrides{}, *guaranteeRuns); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	if run("sigma0") {
		ran = true
		fmt.Println("== σ = 0 pathology (§5.4): TAXI queries without stage-1 pruning ==")
		rows, err := expt.SigmaZero(w, *reps)
		if err != nil {
			log.Fatal(err)
		}
		expt.FprintSigmaZero(os.Stdout, rows)
		fmt.Println()
	}

	if !ran {
		log.Fatalf("unknown experiment %q", *exp)
	}
	fmt.Printf("# total harness time: %v\n", time.Since(start).Round(time.Millisecond))
}
