// Command quickstart is the smallest end-to-end FastMatch example: build a
// tiny census-style table by hand, then ask which countries have an income
// distribution most similar to Greece's — the paper's running example
// (Q1 of Section 1).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"fastmatch"
)

func main() {
	// 1. Build a table: one row per person, with country and income
	// bracket. Real deployments load millions of rows (see ReadCSV); the
	// synthetic populations here keep the example self-contained.
	b := fastmatch.NewBuilder(64)
	if _, err := b.AddColumn("country"); err != nil {
		log.Fatal(err)
	}
	if _, err := b.AddColumn("income_bracket"); err != nil {
		log.Fatal(err)
	}

	brackets := []string{"b1", "b2", "b3", "b4", "b5", "b6", "b7"}
	// Per-country income distributions over 7 brackets. Portugal is
	// engineered to resemble Greece; Luxembourg to differ sharply.
	shapes := map[string][]float64{
		"greece":     {5, 9, 12, 9, 5, 3, 1},
		"portugal":   {5, 8, 12, 10, 5, 3, 1},
		"croatia":    {6, 9, 11, 9, 6, 3, 2},
		"luxembourg": {1, 2, 4, 7, 10, 12, 9},
		"norway":     {1, 3, 6, 9, 11, 9, 5},
		"brazil":     {12, 10, 7, 5, 3, 2, 1},
		"japan":      {2, 5, 9, 12, 9, 5, 2},
	}
	for country, shape := range shapes {
		var total float64
		for _, s := range shape {
			total += s
		}
		for i, s := range shape {
			people := int(s / total * 20_000)
			for p := 0; p < people; p++ {
				err := b.AppendRow(map[string]string{
					"country":        country,
					"income_bracket": brackets[i],
				}, nil)
				if err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	// 2. Shuffle so sequential block reads are uniform samples, then build.
	b.Shuffle(7)
	tbl := b.Build()

	// 3. Ask: which countries look most like Greece?
	eng := fastmatch.NewEngine(tbl)
	opts := fastmatch.DefaultOptions(tbl.NumRows())
	opts.Params.K = 3
	opts.Params.Epsilon = 0.05
	opts.Executor = fastmatch.FastMatch
	res, err := eng.Run(
		fastmatch.Query{Z: "country", X: []string{"income_bracket"}},
		fastmatch.Target{Candidate: "greece"},
		opts,
	)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Report. The first match is Greece itself (distance 0); the
	// interesting matches follow.
	fmt.Printf("Top %d countries by income-distribution similarity to greece\n", len(res.TopK))
	fmt.Printf("(executor=%v, sampled %d of %d tuples, %d blocks skipped, %v)\n\n",
		opts.Executor, res.Stats.TotalSamples(), tbl.NumRows(),
		res.IO.BlocksSkipped, res.Duration.Round(1000))
	for rank, m := range res.TopK {
		fmt.Printf("%d. %-12s  L1 distance %.4f\n", rank+1, m.Label, m.Distance)
		fmt.Println(sparkline(m.Histogram.Normalized()))
	}
}

// sparkline renders a distribution as ASCII bars.
func sparkline(p []float64) string {
	var sb strings.Builder
	max := 0.0
	for _, v := range p {
		if v > max {
			max = v
		}
	}
	for i, v := range p {
		bar := int(v / max * 30)
		sb.WriteString(fmt.Sprintf("   b%-2d %5.1f%% %s\n", i+1, v*100, strings.Repeat("#", bar)))
	}
	return sb.String()
}
