// Command flights runs the paper's FLIGHTS queries end to end on the
// synthetic FLIGHTS dataset: find airports whose departure-hour histogram
// matches a busy hub's (flights-q1), then compare all four executors on
// the same query — a miniature of Table 4 — and finish with a SUM query
// over a measure-biased view (Appendix A.1.1).
//
// Run with:
//
//	go run ./examples/flights [-rows 1000000]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"fastmatch"
	"fastmatch/internal/datagen"
)

func main() {
	rows := flag.Int("rows", 1_000_000, "synthetic flight count")
	flag.Parse()

	ds, err := datagen.Flights(*rows, 11, 256)
	if err != nil {
		log.Fatal(err)
	}
	tbl := ds.Table
	eng := fastmatch.NewEngine(tbl)

	// Use the busiest origin as the target hub ("ORD").
	origin, err := tbl.Column("Origin")
	if err != nil {
		log.Fatal(err)
	}
	counts := make([]int, origin.Cardinality())
	for i := 0; i < tbl.NumRows(); i++ {
		counts[origin.Code(i)]++
	}
	hub, hubCount := 0, 0
	for i, c := range counts {
		if c > hubCount {
			hub, hubCount = i, c
		}
	}
	hubName := origin.Dict.Value(uint32(hub))
	fmt.Printf("flights: %d tuples; busiest origin %q with %d departures\n\n",
		tbl.NumRows(), hubName, hubCount)

	query := fastmatch.Query{Z: "Origin", X: []string{"DepartureHour"}}
	target := fastmatch.Target{Candidate: hubName}

	opts := fastmatch.DefaultOptions(tbl.NumRows())
	opts.Params.K = 10
	opts.Params.Epsilon = 0.08
	opts.Executor = fastmatch.FastMatch
	opts.Seed = 5

	// flights-q1: airports with departure-hour distributions like the hub.
	res, err := eng.Run(query, target, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("q1: top-%d origins matching %s's departure-hour histogram (FastMatch, %v)\n",
		opts.Params.K, hubName, res.Duration.Round(time.Microsecond))
	for rank, m := range res.TopK {
		fmt.Printf("  %2d. %-12s d=%.4f\n", rank+1, m.Label, m.Distance)
	}

	// Mini Table 4: all four executors on the same query.
	fmt.Println("\nexecutor comparison (same query, same guarantees):")
	var scanTime time.Duration
	for _, exec := range []fastmatch.Executor{fastmatch.Scan, fastmatch.ScanMatch, fastmatch.SyncMatch, fastmatch.FastMatch} {
		o := opts
		o.Executor = exec
		r, err := eng.Run(query, target, o)
		if err != nil {
			log.Fatal(err)
		}
		if exec == fastmatch.Scan {
			scanTime = r.Duration
		}
		speedup := float64(scanTime) / float64(r.Duration)
		fmt.Printf("  %-10v %10v  speedup %5.2fx  tuples read %9d  blocks skipped %7d\n",
			exec, r.Duration.Round(time.Microsecond), speedup, r.IO.TuplesRead, r.IO.BlocksSkipped)
	}

	// SUM query via a measure-biased view: which origins have delay-cost
	// mass distributed across hours like the hub? (Appendix A.1.1 — the
	// view converts SUM(Fare-like measure) into COUNT semantics.)
	taxi, err := datagen.Taxi(200_000, 13, 256)
	if err != nil {
		log.Fatal(err)
	}
	view, err := fastmatch.MeasureBiasedView(taxi.Table, "Fare", 400_000, 17)
	if err != nil {
		log.Fatal(err)
	}
	veng := fastmatch.NewEngine(view)
	vopts := fastmatch.DefaultOptions(view.NumRows())
	vopts.Params.K = 5
	vopts.Params.Epsilon = 0.15
	vres, err := veng.Run(
		fastmatch.Query{Z: "Location", X: []string{"HourOfDay"}},
		fastmatch.Target{Uniform: true},
		vopts,
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSUM(Fare) by hour, locations with most-uniform fare mass (measure-biased view of %d rows):\n",
		view.NumRows())
	for rank, m := range vres.TopK {
		fmt.Printf("  %2d. %-14s d=%.4f\n", rank+1, m.Label, m.Distance)
	}
}
