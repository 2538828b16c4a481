// Command fastmatch answers a top-k histogram matching query over a CSV
// file: the command-line face of the library.
//
// Usage:
//
//	go run ./cmd/datagen -dataset flights -rows 200000 -out flights.csv
//	go run ./cmd/fastmatch -csv flights.csv -z Origin -x DepartureHour \
//	    -target-candidate Origin_17 -k 5 -epsilon 0.2
//
// The target may be another candidate's histogram (-target-candidate),
// the uniform distribution (-target-uniform), or explicit comma-separated
// counts (-target-counts "1,2,4,2,1").
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"fastmatch"
	"fastmatch/internal/colstore"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
)

func main() {
	csvPath := flag.String("csv", "", "input CSV file (headered)")
	z := flag.String("z", "", "candidate attribute (one histogram per distinct value)")
	x := flag.String("x", "", "grouping attribute(s), comma-separated for composite groups")
	k := flag.Int("k", 5, "number of matches to return")
	epsilon := flag.Float64("epsilon", 0.1, "approximation error bound ε")
	delta := flag.Float64("delta", 0.01, "error probability bound δ")
	sigma := flag.Float64("sigma", 0.001, "minimum selectivity threshold σ")
	executor := flag.String("executor", "auto", "auto, scan, parallelscan, scanmatch, syncmatch, or fastmatch")
	workers := flag.Int("workers", 0, "exact-pass worker count: scan, parallelscan and a sampling run's candidate-target pass (0 = GOMAXPROCS)")
	metric := flag.String("metric", "l1", "distance metric: l1 or l2")
	targetCandidate := flag.String("target-candidate", "", "candidate value whose histogram is the target")
	targetUniform := flag.Bool("target-uniform", false, "target the uniform distribution")
	targetCounts := flag.String("target-counts", "", "explicit target counts, comma-separated")
	// Options.Seed 0 means a fixed start block, so the tool seeds each
	// invocation from the wall clock unless the user pins -seed.
	seed := flag.Int64("seed", time.Now().UnixNano(), "randomization seed (default: per-run from wall clock)")
	showHist := flag.Bool("hist", false, "print each match's histogram")
	flag.Parse()

	if *csvPath == "" || *z == "" || *x == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*csvPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	shuffleSeed := *seed
	tbl, err := colstore.ReadCSV(f, colstore.CSVOptions{ShuffleSeed: &shuffleSeed, DropInvalid: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loaded %d tuples in %d blocks\n", tbl.NumRows(), tbl.NumBlocks())

	exec, err := engine.ParseExecutor(*executor)
	if err != nil {
		log.Fatal(err)
	}
	m, err := histogram.ParseMetric(*metric)
	if err != nil {
		log.Fatal(err)
	}
	opts := fastmatch.DefaultOptions(tbl.NumRows())
	opts.Params.K = *k
	opts.Params.Epsilon = *epsilon
	opts.Params.Delta = *delta
	opts.Params.Sigma = *sigma
	opts.Params.Metric = m
	opts.Executor = exec
	opts.Seed = *seed
	opts.Workers = *workers

	var target fastmatch.Target
	switch {
	case *targetCandidate != "":
		target.Candidate = *targetCandidate
	case *targetUniform:
		target.Uniform = true
	case *targetCounts != "":
		for _, field := range strings.Split(*targetCounts, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				log.Fatalf("bad target count %q: %v", field, err)
			}
			target.Counts = append(target.Counts, v)
		}
	default:
		log.Fatal("specify one of -target-candidate, -target-uniform, -target-counts")
	}

	query := fastmatch.Query{Z: *z, X: strings.Split(*x, ",")}
	res, err := fastmatch.NewEngine(tbl).Run(query, target, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"executor=%s sampled=%d/%d tuples blocks(read=%d skipped=%d) rounds=%d pruned=%d exact=%v in %v\n",
		exec, res.Stats.TotalSamples(), tbl.NumRows(),
		res.IO.BlocksRead, res.IO.BlocksSkipped, res.Stats.Rounds,
		res.Stats.PrunedCandidates, res.Exact, res.Duration.Round(time.Microsecond))
	for rank, match := range res.TopK {
		fmt.Printf("%2d. %-24s distance=%.4f n=%d\n",
			rank+1, match.Label, match.Distance, int(match.Histogram.Total()))
		if *showHist {
			p := match.Histogram.Normalized()
			for g, v := range p {
				fmt.Printf("      %-16s %6.2f%% %s\n", res.GroupLabels[g], v*100,
					strings.Repeat("#", int(v*60)))
			}
		}
	}
}
