// Command census reproduces the census exploration scenario of Example 1:
// a large synthetic population table with several attributes, against
// which an analyst runs a sequence of matching queries — including a
// predicate-filtered query (Q3's "(nationality, religion) pairs" flavour
// via composite grouping) and a k-range query (Appendix A.2.3).
//
// Run with:
//
//	go run ./examples/census [-rows 500000]
package main

import (
	"flag"
	"fmt"
	"log"

	"fastmatch"
	"fastmatch/internal/datagen"
)

func main() {
	rows := flag.Int("rows", 500_000, "synthetic census size in tuples")
	flag.Parse()

	// Synthetic census: countries with clustered income distributions.
	ds, err := datagen.Generate(datagen.Spec{
		Name: "census", Rows: *rows, Seed: 1, Clusters: 9, BlockSize: 256,
		Columns: []datagen.ColumnSpec{
			{Name: "country", Cardinality: 190, Skew: 1.0, ClusterConcentration: 0.5},
			{Name: "income_bracket", Cardinality: 7, Skew: 0.3, ClusterConcentration: 0.4},
			{Name: "occupation", Cardinality: 40, Skew: 0.9, ClusterConcentration: 0.8},
			{Name: "num_children", Cardinality: 8, Skew: 0.8, ClusterConcentration: 0.6},
			{Name: "religion", Cardinality: 12, Skew: 1.1, ClusterConcentration: 0.7},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	tbl := ds.Table
	eng := fastmatch.NewEngine(tbl)
	fmt.Printf("census: %d tuples, %d blocks\n\n", tbl.NumRows(), tbl.NumBlocks())

	// Q1: which countries have income distributions similar to country_0?
	opts := fastmatch.DefaultOptions(tbl.NumRows())
	opts.Params.K = 5
	opts.Params.Epsilon = 0.08
	opts.Executor = fastmatch.FastMatch
	res, err := eng.Run(
		fastmatch.Query{Z: "country", X: []string{"income_bracket"}},
		fastmatch.Target{Candidate: "country_0"},
		opts,
	)
	if err != nil {
		log.Fatal(err)
	}
	report("Q1: countries with income distributions like country_0", res, tbl.NumRows())

	// Q2-style: occupations whose num_children distribution matches
	// occupation_3's, over a composite (occupation only here) —
	// demonstrating a different Z/X template on the same engine with
	// indexes reused.
	res, err = eng.Run(
		fastmatch.Query{Z: "occupation", X: []string{"num_children"}},
		fastmatch.Target{Candidate: "occupation_3"},
		opts,
	)
	if err != nil {
		log.Fatal(err)
	}
	report("Q2: occupations with family sizes like occupation_3", res, tbl.NumRows())

	// Q3: composite grouping — countries whose joint (income, children)
	// distribution is closest to uniform (Appendix A.1.3).
	optsQ3 := opts
	optsQ3.Params.K = 3
	optsQ3.Params.Epsilon = 0.15
	res, err = eng.Run(
		fastmatch.Query{Z: "country", X: []string{"income_bracket", "num_children"}},
		fastmatch.Target{Uniform: true},
		optsQ3,
	)
	if err != nil {
		log.Fatal(err)
	}
	report("Q3: countries with most-uniform joint (income × children)", res, tbl.NumRows())

	// Q4: a k-range query — "find me between 3 and 8 close matches,
	// whichever splits most cleanly" (Appendix A.2.3).
	optsKR := opts
	optsKR.Params.K = 0
	optsKR.Params.KRange.KMin = 3
	optsKR.Params.KRange.KMax = 8
	res, err = eng.Run(
		fastmatch.Query{Z: "country", X: []string{"income_bracket"}},
		fastmatch.Target{Candidate: "country_1"},
		optsKR,
	)
	if err != nil {
		log.Fatal(err)
	}
	report(fmt.Sprintf("Q4: k∈[3,8] matches for country_1 (chose k=%d)", res.Stats.ChosenK),
		res, tbl.NumRows())
}

func report(title string, res *fastmatch.Result, totalRows int) {
	fmt.Println(title)
	fmt.Printf("  sampled %d/%d tuples in %v (stage2 rounds: %d, pruned: %d, blocks skipped: %d)\n",
		res.Stats.TotalSamples(), totalRows, res.Duration.Round(1000),
		res.Stats.Rounds, res.Stats.PrunedCandidates, res.IO.BlocksSkipped)
	for rank, m := range res.TopK {
		fmt.Printf("  %2d. %-16s d=%.4f\n", rank+1, m.Label, m.Distance)
	}
	fmt.Println()
}
