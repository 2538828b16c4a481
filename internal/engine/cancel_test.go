package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fastmatch/internal/colstore"
	"fastmatch/internal/ingest"
)

// The -race cancellation suite: every executor, over every storage
// backend, must unwind cleanly from a mid-scan cancellation — typed
// error, best-effort partial result, goroutines joined, view pins
// released — and the engine's shared caches must keep serving
// byte-identical results afterwards.

// cancelBackends returns the three storage backends a query can run
// over, each serving the same dataset.
func cancelBackends(t *testing.T) map[string]colstore.Reader {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	return map[string]colstore.Reader{
		"inmem":  tbl,
		"mmap":   mmapTwin(t, tbl),
		"ingest": ingestTwin(t, tbl),
	}
}

// ingestTwin replays tbl's rows into a WritableTable and returns a
// snapshot-isolated view over them (released at cleanup).
func ingestTwin(t testing.TB, tbl *colstore.Table) *ingest.TableView {
	t.Helper()
	wt := ingestTableFrom(t, tbl, 4096)
	v, err := wt.View()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Release)
	return v
}

// ingestTableFrom appends every row of tbl to a fresh WritableTable.
func ingestTableFrom(t testing.TB, tbl *colstore.Table, sealRows int) *ingest.WritableTable {
	t.Helper()
	wt, err := ingest.Open(t.TempDir(), ingest.Schema{
		Columns:   tbl.Columns(),
		Measures:  tbl.MeasureNames(),
		BlockSize: tbl.BlockSize(),
	}, ingest.Options{SealRows: sealRows, NoSync: true, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wt.Close() })
	cols := make([]colstore.ColumnReader, 0, len(tbl.Columns()))
	for _, name := range tbl.Columns() {
		c, err := tbl.ColumnByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, c)
	}
	meas := make([]colstore.MeasureReader, 0, len(tbl.MeasureNames()))
	for _, name := range tbl.MeasureNames() {
		m, err := tbl.MeasureByName(name)
		if err != nil {
			t.Fatal(err)
		}
		meas = append(meas, m)
	}
	batch := make([]ingest.Row, 0, 1000)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if _, err := wt.Append(batch); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
	}
	for row := 0; row < tbl.NumRows(); row++ {
		r := ingest.Row{Values: make(map[string]string, len(cols))}
		for _, c := range cols {
			r.Values[c.ColumnName()] = c.Dictionary().Value(c.Code(row))
		}
		if len(meas) > 0 {
			r.Measures = make(map[string]float64, len(meas))
			for _, m := range meas {
				r.Measures[m.MeasureName()] = m.Value(row)
			}
		}
		if batch = append(batch, r); len(batch) == cap(batch) {
			flush()
		}
	}
	flush()
	return wt
}

// cancelAfterRows returns a row filter that keeps every row and cancels
// ctx once n rows have been seen — a deterministic mid-scan trigger that
// works identically for sequential and parallel executors.
func cancelAfterRows(cancel context.CancelFunc, n int64) func(int) bool {
	var seen atomic.Int64
	return func(int) bool {
		if seen.Add(1) == n {
			cancel()
		}
		return true
	}
}

func cancelOptions(exec Executor, nb int) Options {
	return Options{
		Params:     testParams(),
		Executor:   exec,
		Lookahead:  nb + 1,
		StartBlock: -1,
		Seed:       11,
		Workers:    4,
	}
}

func TestCancelMidScanAllExecutorsAllBackends(t *testing.T) {
	for name, src := range cancelBackends(t) {
		eng := New(src)
		for _, exec := range allExecutors() {
			t.Run(fmt.Sprintf("%s/%s", name, exec), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				q := baseQuery()
				q.Filter = cancelAfterRows(cancel, 5_000)
				res, err := eng.RunContext(ctx, q, Target{Uniform: true}, cancelOptions(exec, src.NumBlocks()))
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("want ErrCanceled, got %v", err)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cause should be context.Canceled, got %v", err)
				}
				if res == nil {
					t.Fatal("canceled mid-scan run returned no partial result")
				}
				if !res.Partial || res.Exact {
					t.Fatalf("partial=%v exact=%v, want partial non-exact", res.Partial, res.Exact)
				}
				// Unwound at block granularity: nowhere near the full pass.
				if res.IO.TuplesRead >= int64(src.NumRows()) {
					t.Fatalf("read %d tuples of %d after cancellation at 5000 rows", res.IO.TuplesRead, src.NumRows())
				}
			})
		}
	}
}

// TestCachesServeIdenticalResultsAfterCancellation is the cache-
// consistency half of the contract: an engine that has absorbed canceled
// runs must answer exactly like one that never saw them.
func TestCachesServeIdenticalResultsAfterCancellation(t *testing.T) {
	for name, src := range cancelBackends(t) {
		t.Run(name, func(t *testing.T) {
			scarred := New(src)
			for _, exec := range allExecutors() {
				ctx, cancel := context.WithCancel(context.Background())
				q := baseQuery()
				q.Filter = cancelAfterRows(cancel, 2_000)
				if _, err := scarred.RunContext(ctx, q, Target{Uniform: true}, cancelOptions(exec, src.NumBlocks())); !errors.Is(err, ErrCanceled) {
					cancel()
					t.Fatalf("%v: cancellation did not fire: %v", exec, err)
				}
				cancel()
			}
			pristine := New(src)
			for _, exec := range allExecutors() {
				opts := cancelOptions(exec, src.NumBlocks())
				a, err := scarred.Run(baseQuery(), Target{Uniform: true}, opts)
				if err != nil {
					t.Fatalf("%v on scarred engine: %v", exec, err)
				}
				b, err := pristine.Run(baseQuery(), Target{Uniform: true}, opts)
				if err != nil {
					t.Fatalf("%v on pristine engine: %v", exec, err)
				}
				if ca, cb := canonicalResult(t, a), canonicalResult(t, b); ca != cb {
					t.Fatalf("%v: results diverge after cancellations:\nscarred:  %s\npristine: %s", exec, ca, cb)
				}
			}
		})
	}
}

func TestRowBudgetReturnsPartialResult(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	eng := New(tbl)
	const budget = 3_000
	for _, exec := range allExecutors() {
		t.Run(exec.String(), func(t *testing.T) {
			opts := cancelOptions(exec, tbl.NumBlocks())
			opts.RowBudget = budget
			res, err := eng.Run(baseQuery(), Target{Uniform: true}, opts)
			if !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("want ErrBudgetExhausted, got %v", err)
			}
			if res == nil || !res.Partial {
				t.Fatalf("budget stop should produce a partial result, got %+v", res)
			}
			if res.IO.TuplesRead < budget {
				t.Fatalf("stopped before the budget: read %d of %d", res.IO.TuplesRead, budget)
			}
			// Block-granular enforcement: a sampling walk reads at most one
			// block past the budget, the exact scans one per worker.
			slack := int64((opts.Workers + 1) * tbl.BlockSize())
			if exec != Scan && exec != ParallelScan {
				slack = int64(tbl.BlockSize())
			}
			if res.IO.TuplesRead > budget+slack {
				t.Fatalf("overshot the budget: read %d, budget %d (+%d slack)", res.IO.TuplesRead, budget, slack)
			}
			if len(res.TopK) == 0 {
				t.Fatal("partial result carries no best-effort top-k")
			}
			for _, m := range res.TopK {
				if m.Histogram == nil || m.Histogram.Total() == 0 {
					t.Fatalf("partial top-k ranked never-observed candidate %q", m.Label)
				}
			}
		})
	}
}

func TestPreExpiredDeadlineFailsFast(t *testing.T) {
	tbl := testDataset(t, 10_000, 10, 6, 3)
	eng := New(tbl)
	p, err := eng.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := p.RunContext(ctx, Target{Uniform: true}, cancelOptions(ScanMatch, tbl.NumBlocks()))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping DeadlineExceeded, got %v", err)
	}
	if res != nil {
		t.Fatalf("no work was done, result should be nil, got %+v", res)
	}
}

func TestDeadlineMidRunReturnsPartial(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	slow := colstore.NewThrottledReader(tbl, 500*time.Microsecond)
	eng := New(slow)
	// Build the plan (and its bitmap index — a full block sweep, which
	// also pays the simulated latency) before the clock starts: planning
	// is shared across runs and deliberately not cancellable.
	if _, err := eng.Prepare(baseQuery()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(50*time.Millisecond))
	defer cancel()
	res, err := eng.RunContext(ctx, baseQuery(), Target{Uniform: true}, cancelOptions(ScanMatch, slow.NumBlocks()))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping DeadlineExceeded, got %v", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("mid-run deadline should salvage a partial result, got %+v", res)
	}
	if res.IO.TuplesRead >= int64(tbl.NumRows()) {
		t.Fatal("deadline did not stop the scan")
	}
}

// TestFastMatchCancelJoinsLookaheadGoroutines asserts the canceled
// FastMatch path leaves no marker goroutine behind.
func TestFastMatchCancelJoinsLookaheadGoroutines(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	eng := New(tbl)
	// Warm the index caches so the baseline is steady.
	if _, err := eng.Run(baseQuery(), Target{Uniform: true}, cancelOptions(ScanMatch, tbl.NumBlocks())); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		q := baseQuery()
		q.Filter = cancelAfterRows(cancel, 1_000)
		opts := cancelOptions(FastMatch, tbl.NumBlocks())
		opts.Lookahead = 16 // many windows: the marker outlives the read loop
		if _, err := eng.RunContext(ctx, q, Target{Uniform: true}, opts); !errors.Is(err, ErrCanceled) {
			cancel()
			t.Fatalf("iteration %d: want ErrCanceled, got %v", i, err)
		}
		cancel()
	}
	for attempt := 0; ; attempt++ {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if attempt > 50 {
			t.Fatalf("goroutines leaked: %d before, %d after 20 canceled FastMatch runs", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIngestPinsReleasedAfterCanceledRun asserts a canceled FastMatch
// run over a live-table view leaves no segment pins behind once the view
// is released (the leak assertion via ingest.Stats).
func TestIngestPinsReleasedAfterCanceledRun(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	wt := ingestTableFrom(t, tbl, 2048) // many sealed segments
	v0, err := wt.View()
	if err != nil {
		t.Fatal(err)
	}
	v0.Release()
	base := wt.Stats()
	if base.Segments < 4 {
		t.Fatalf("want several sealed segments, got %d", base.Segments)
	}

	v, err := wt.View()
	if err != nil {
		t.Fatal(err)
	}
	eng := New(v)
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		q := baseQuery()
		q.Filter = cancelAfterRows(cancel, 2_000)
		if _, err := eng.RunContext(ctx, q, Target{Uniform: true}, cancelOptions(FastMatch, v.NumBlocks())); !errors.Is(err, ErrCanceled) {
			cancel()
			t.Fatalf("iteration %d: want ErrCanceled, got %v", i, err)
		}
		cancel()
	}
	v.Release()
	if got := wt.Stats().SegmentPins; got != base.SegmentPins {
		t.Fatalf("segment pins leaked across canceled runs: %d, baseline %d", got, base.SegmentPins)
	}
}

// TestProgressSequenceDeterministic asserts seeded progressive runs emit
// identical Progress sequences (Elapsed zeroed — it is wall-clock).
func TestProgressSequenceDeterministic(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	for _, exec := range []Executor{Scan, ScanMatch, SyncMatch} {
		t.Run(exec.String(), func(t *testing.T) {
			eng := New(tbl)
			collect := func() []Progress {
				var got []Progress
				opts := cancelOptions(exec, tbl.NumBlocks())
				opts.Workers = 1
				opts.OnProgress = func(p Progress) {
					p.Elapsed = 0
					got = append(got, p)
				}
				if _, err := eng.Run(baseQuery(), Target{Uniform: true}, opts); err != nil {
					t.Fatal(err)
				}
				return got
			}
			a, b := collect(), collect()
			if len(a) == 0 {
				t.Fatal("no progress emitted")
			}
			if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
				t.Fatalf("progress sequences diverge:\n%+v\nvs\n%+v", a, b)
			}
			wantPhase := "stage1"
			if exec == Scan {
				wantPhase = "scan"
			}
			if a[0].Phase != wantPhase {
				t.Fatalf("first frame phase %q, want %q", a[0].Phase, wantPhase)
			}
		})
	}
}

// TestProgressMatchesPlainRun asserts OnProgress observation does not
// perturb the answer.
func TestProgressMatchesPlainRun(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	eng := New(tbl)
	for _, exec := range allExecutors() {
		opts := cancelOptions(exec, tbl.NumBlocks())
		plain, err := eng.Run(baseQuery(), Target{Uniform: true}, opts)
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		opts.OnProgress = func(Progress) { frames++ }
		observed, err := eng.Run(baseQuery(), Target{Uniform: true}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if canonicalResult(t, plain) != canonicalResult(t, observed) {
			t.Fatalf("%v: OnProgress changed the result", exec)
		}
		if exec != ParallelScan && frames == 0 {
			t.Fatalf("%v: no progress frames", exec)
		}
	}
}
