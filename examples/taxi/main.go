// Command taxi reproduces the taxi exploration scenario of Example 2
// (Q4/Q5): Bob notices a Manhattan location whose pickup-time histogram
// skews toward 3–5 am, and asks which other locations share that
// distribution. The candidate attribute has thousands of values, most of
// them nearly empty — the stage-1 pruning stress test of the paper's TAXI
// dataset — so the example also prints what pruning did.
//
// Run with:
//
//	go run ./examples/taxi [-rows 800000]
package main

import (
	"flag"
	"fmt"
	"log"

	"fastmatch"
	"fastmatch/internal/datagen"
)

func main() {
	rows := flag.Int("rows", 800_000, "synthetic trip count")
	flag.Parse()

	ds, err := datagen.Taxi(*rows, 3, 256)
	if err != nil {
		log.Fatal(err)
	}
	tbl := ds.Table
	eng := fastmatch.NewEngine(tbl)

	loc, err := tbl.Column("Location")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("taxi: %d trips over %d locations\n", tbl.NumRows(), loc.Cardinality())

	// Bob's "nightclub" target: a pickup-hour distribution concentrated in
	// the 3–5 am range.
	nightclub := make([]float64, 24)
	for h := range nightclub {
		nightclub[h] = 1
	}
	nightclub[3], nightclub[4], nightclub[5] = 12, 16, 10
	nightclub[22], nightclub[23] = 4, 6

	opts := fastmatch.DefaultOptions(tbl.NumRows())
	opts.Params.K = 8
	opts.Params.Epsilon = 0.12
	opts.Executor = fastmatch.FastMatch
	// Scale σ and the stage-1 sample to this dataset's size so the rarity
	// test has power (the library default is tuned for paper-scale data).
	opts.Params.Sigma = 0.002
	opts.Params.Stage1Samples = tbl.NumRows() / 10
	opts.Seed = 99
	res, err := eng.Run(
		fastmatch.Query{Z: "Location", X: []string{"HourOfDay"}},
		fastmatch.Target{Counts: nightclub},
		opts,
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nQ4: locations with late-night pickup distributions (ε=%.2f, δ=%.2f, σ=%.4f)\n",
		opts.Params.Epsilon, opts.Params.Delta, opts.Params.Sigma)
	fmt.Printf("  stage 1 pruned %d of %d locations as too rare (σ threshold)\n",
		res.Stats.PrunedCandidates, loc.Cardinality())
	fmt.Printf("  sampled %d/%d tuples in %v; %d blocks skipped by AnyActive\n\n",
		res.Stats.TotalSamples(), tbl.NumRows(), res.Duration.Round(1000), res.IO.BlocksSkipped)
	for rank, m := range res.TopK {
		night := nightShare(m)
		fmt.Printf("%2d. %-14s d=%.4f  %4.1f%% of pickups between 3am and 5am\n",
			rank+1, m.Label, m.Distance, night*100)
	}

	// Q5 flavour: compare against the same query with the L2 metric to
	// see whether the metric choice changes the answer (§5.4's Table 5
	// analysis).
	optsL2 := opts
	optsL2.Params.Metric = fastmatch.MetricL2
	optsL2.Params.Epsilon = 0.08
	resL2, err := eng.Run(
		fastmatch.Query{Z: "Location", X: []string{"HourOfDay"}},
		fastmatch.Target{Counts: nightclub},
		optsL2,
	)
	if err != nil {
		log.Fatal(err)
	}
	inL1 := map[string]bool{}
	for _, m := range res.TopK {
		inL1[m.Label] = true
	}
	common := 0
	for _, m := range resL2.TopK {
		if inL1[m.Label] {
			common++
		}
	}
	fmt.Printf("\nL1 vs L2 agreement on the top-%d: %d/%d locations in common\n",
		opts.Params.K, common, opts.Params.K)
}

// nightShare computes the 3–5am mass of a match's histogram.
func nightShare(m fastmatch.Match) float64 {
	p := m.Histogram.Normalized()
	return p[3] + p[4] + p[5]
}
