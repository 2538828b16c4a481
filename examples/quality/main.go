// Command quality demonstrates the answer-quality observability
// subsystem end to end:
//
//  1. Direct engine use — every sampling run streams per-round
//     convergence telemetry (estimated-distance margin vs ε, stopping
//     slack, top-k churn) through OnProgress, then returns the terminal
//     QualityReport with per-match confidence intervals.
//  2. AuditRun — grading the sampled answer against an exact
//     re-execution: strict precision@k, rank displacement, distance
//     error.
//  3. The guarantee boundary — a row-budgeted run comes back flagged
//     Truncated and AuditRun refuses to grade it (it claimed nothing).
//  4. Over HTTP — "quality": true returns the report next to the
//     result, and a shadow-audit sampler (AuditFraction 1) grades the
//     answer off the request path; the verdict lands in the query's
//     record at GET /v1/debug/queries/{id}, found by its X-Query-ID.
//
// Run with:
//
//	go run ./examples/quality
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"fastmatch"
)

func main() {
	tbl := buildTable()
	eng := fastmatch.NewEngine(tbl)
	query := fastmatch.Query{Z: "city", X: []string{"hour"}}

	// --- 1. Watch the run converge, round by round. ---
	fmt.Println("== quality-instrumented run (per-round convergence)")
	opts := fastmatch.DefaultOptions(tbl.NumRows())
	opts.Executor = fastmatch.ScanMatch // deterministic round structure
	opts.Params.K = 3
	opts.Params.Epsilon = 0.02
	opts.Seed = 42
	opts.OnProgress = func(p fastmatch.Progress) {
		fmt.Printf("  round %-2d  gap=%-8.4f slack=%-8.4f churn=%d pruned=%d\n",
			p.Round, p.Quality.Gap, p.Quality.Slack, p.Quality.Churn, p.Quality.PrunedCandidates)
	}
	res, err := eng.Run(query, fastmatch.Target{Uniform: true}, opts)
	if err != nil {
		log.Fatal(err)
	}
	opts.OnProgress = nil

	q := res.Quality
	fmt.Printf("\n  report: rounds=%d termination=%q guarantee_met=%v final_gap=%.4f\n",
		q.Rounds, q.Termination, q.GuaranteeMet, q.FinalGap)
	for i, m := range q.Matches {
		fmt.Printf("    %d. %-10s τ̂=%.4f ± %.4f  (%d samples)\n",
			i+1, m.Label, m.Distance, m.CI, m.Samples)
	}

	// --- 2. Grade the answer against ground truth. ---
	fmt.Println("\n== shadow audit (exact re-execution)")
	plan, err := eng.Prepare(query)
	if err != nil {
		log.Fatal(err)
	}
	audit, err := fastmatch.AuditRun(context.Background(), plan, fastmatch.Target{Uniform: true}, res, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  precision@%d=%.2f  guarantee_violations=%d  max_displacement=%d  max_abs_error=%.4f\n",
		audit.K, audit.PrecisionAtK, audit.GuaranteeViolations, audit.MaxDisplacement, audit.MaxAbsError)
	for _, c := range audit.Candidates {
		mark := " "
		if !c.InExactTopK {
			mark = "!"
		}
		fmt.Printf("  %s %-10s approx rank %d (τ̂=%.4f)  exact rank %d (τ=%.4f)\n",
			mark, c.Label, c.ApproxRank, c.ApproxDistance, c.ExactRank, c.ExactDistance)
	}

	// --- 3. Truncated runs claim nothing, and are graded as nothing. ---
	fmt.Println("\n== row-budgeted run: flagged truncated, refused by the auditor")
	bopts := opts
	bopts.RowBudget = int64(tbl.NumRows() / 100)
	bres, err := eng.Run(query, fastmatch.Target{Uniform: true}, bopts)
	if !errors.Is(err, fastmatch.ErrBudgetExhausted) {
		log.Fatalf("expected budget exhaustion, got %v", err)
	}
	fmt.Printf("  partial=%v truncated=%v termination=%q guarantee_met=%v\n",
		bres.Partial, bres.Quality.Truncated, bres.Quality.Termination, bres.Quality.GuaranteeMet)
	if _, err := fastmatch.AuditRun(context.Background(), plan, fastmatch.Target{Uniform: true}, bres, bopts); err != nil {
		fmt.Printf("  auditor: %v\n", err)
	}

	// --- 4. The same machinery behind the HTTP API. ---
	fmt.Println("\n== over HTTP: quality report in the response, shadow audit in the query record")
	srv := fastmatch.NewServer(fastmatch.ServerConfig{AuditFraction: 1})
	if err := srv.RegisterTable("taxi", tbl); err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{
	  "table": "taxi",
	  "query": {"z": "city", "x": ["hour"]},
	  "target": {"uniform": true},
	  "options": {"k": 3, "executor": "scanmatch", "epsilon": 0.02, "seed": 42},
	  "quality": true
	}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	queryID := resp.Header.Get("X-Query-ID")
	var reply struct {
		Quality *fastmatch.QualityReport `json:"quality"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("  response quality: rounds=%d guarantee_met=%v\n",
		reply.Quality.Rounds, reply.Quality.GuaranteeMet)

	// The shadow audit runs off the request path; poll the query's record.
	for i := 0; i < 100; i++ {
		resp, err := http.Get(ts.URL + "/v1/debug/queries/" + queryID)
		if err != nil {
			log.Fatal(err)
		}
		var rec struct {
			Executor string           `json:"executor"`
			Audit    *fastmatch.Audit `json:"audit"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if rec.Audit != nil {
			fmt.Printf("  query %s (%s) audited — precision@%d=%.2f, violations=%d\n",
				queryID, rec.Executor, rec.Audit.K, rec.Audit.PrecisionAtK, rec.Audit.GuaranteeViolations)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	log.Fatal("shadow audit never landed in the query record")
}

// buildTable synthesizes hourly trip counts for cities with distinct
// diurnal shapes; the uniform target makes "which city is busiest
// around the clock" the question, and the near-ties among flat cities
// give the sampler real work to separate.
func buildTable() *fastmatch.Table {
	b := fastmatch.NewBuilder(128)
	if _, err := b.AddColumn("city"); err != nil {
		log.Fatal(err)
	}
	if _, err := b.AddColumn("hour"); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	cities := []string{"nyc", "chicago", "sf", "austin", "miami", "seattle", "boston", "denver"}
	for _, city := range cities {
		peak := rng.Intn(24)
		width := 2 + rng.Intn(6) // wider = flatter = closer to uniform
		for i := 0; i < 40_000; i++ {
			h := (peak + int(rng.NormFloat64()*float64(width)) + 240) % 24
			err := b.AppendRow(map[string]string{
				"city": city, "hour": fmt.Sprintf("h%02d", h),
			}, nil)
			if err != nil {
				log.Fatal(err)
			}
		}
	}
	b.Shuffle(3)
	return b.Build()
}
