package fastmatch_test

import (
	"testing"

	"fastmatch"
	"fastmatch/internal/datagen"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	// Exercise the full public surface: build a table by hand, query it
	// with every executor.
	b := fastmatch.NewBuilder(32)
	if _, err := b.AddColumn("country"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddColumn("bracket"); err != nil {
		t.Fatal(err)
	}
	countries := []string{"greece", "italy", "spain", "norway", "japan"}
	// greece/italy share a shape; others differ.
	shape := map[string][]int{
		"greece": {5, 3, 1}, "italy": {5, 3, 2}, "spain": {1, 3, 5},
		"norway": {3, 3, 3}, "japan": {1, 1, 8},
	}
	brackets := []string{"low", "mid", "high"}
	for _, c := range countries {
		for bi, reps := range shape[c] {
			for r := 0; r < reps*40; r++ {
				err := b.AppendRow(map[string]string{"country": c, "bracket": brackets[bi]}, nil)
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	b.Shuffle(11)
	tbl := b.Build()

	opts := fastmatch.DefaultOptions(tbl.NumRows())
	opts.Params.K = 2
	opts.Params.Epsilon = 0.05
	opts.Params.Sigma = 0
	opts.Params.Stage1Samples = 0
	for _, exec := range []fastmatch.Executor{fastmatch.Scan, fastmatch.ScanMatch, fastmatch.SyncMatch, fastmatch.FastMatch} {
		opts.Executor = exec
		res, err := fastmatch.NewEngine(tbl).Run(
			fastmatch.Query{Z: "country", X: []string{"bracket"}},
			fastmatch.Target{Candidate: "greece"},
			opts,
		)
		if err != nil {
			t.Fatalf("%v: %v", exec, err)
		}
		if len(res.TopK) != 2 {
			t.Fatalf("%v: topk size %d", exec, len(res.TopK))
		}
		if res.TopK[0].Label != "greece" {
			t.Fatalf("%v: target not first: %q", exec, res.TopK[0].Label)
		}
		if res.TopK[1].Label != "italy" {
			t.Fatalf("%v: second match %q, want italy", exec, res.TopK[1].Label)
		}
	}
}

func TestDefaultOptionsScaling(t *testing.T) {
	small := fastmatch.DefaultOptions(100)
	if small.Params.Stage1Samples != 2000 {
		t.Fatalf("small m = %d", small.Params.Stage1Samples)
	}
	mid := fastmatch.DefaultOptions(1_000_000)
	if mid.Params.Stage1Samples != 50_000 {
		t.Fatalf("mid m = %d", mid.Params.Stage1Samples)
	}
	big := fastmatch.DefaultOptions(600_000_000)
	if big.Params.Stage1Samples != 500_000 {
		t.Fatalf("big m = %d (paper cap)", big.Params.Stage1Samples)
	}
	if big.Params.Epsilon != 0.04 || big.Params.Delta != 0.01 || big.Params.Sigma != 0.0008 {
		t.Fatal("paper defaults wrong")
	}
	if big.Executor != fastmatch.Auto || big.Lookahead != 1024 {
		t.Fatal("default executor/lookahead wrong")
	}
}

func TestPublicAPIWithGeneratedData(t *testing.T) {
	ds, err := datagen.Flights(20_000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastmatch.DefaultOptions(20_000)
	opts.Params.K = 5
	opts.Params.Epsilon = 0.1
	opts.Seed = 4
	res, err := fastmatch.NewEngine(ds.Table).Run(
		fastmatch.Query{Z: "Origin", X: []string{"DepartureHour"}},
		fastmatch.Target{Uniform: true},
		opts,
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 5 {
		t.Fatalf("topk size %d", len(res.TopK))
	}
	if len(res.GroupLabels) != 24 {
		t.Fatalf("group labels %d", len(res.GroupLabels))
	}
}

func TestNewHistogramAndBinner(t *testing.T) {
	h := fastmatch.NewHistogram([]float64{1, 2, 3})
	if h.Total() != 6 {
		t.Fatalf("Total = %g", h.Total())
	}
	bn, err := fastmatch.NewUniformBinner(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if bn.NumBins() != 5 {
		t.Fatalf("bins = %d", bn.NumBins())
	}
}
