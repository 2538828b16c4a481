package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"fastmatch/internal/colstore"
)

// Deadlines and goroutine joins; TestConformanceMatrix holds canceled
// and budget-stopped runs of every executor on every backend to their
// typed errors and partial answers.

func TestPreExpiredDeadlineFailsFast(t *testing.T) {
	tbl := testDataset(t, 10_000, 10, 6, 3)
	eng := New(tbl)
	p, err := eng.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := p.RunContext(ctx, Target{Uniform: true}, runOptions(ScanMatch, tbl.NumBlocks(), 4))
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
	res, err := eng.RunContext(ctx, baseQuery(), Target{Uniform: true}, runOptions(ScanMatch, slow.NumBlocks(), 4))
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

// TestFastMatchCancelJoinsLookaheadGoroutines asserts canceled FastMatch
// runs leave no goroutine behind. The sampler marks each lookahead window
// on the run's own goroutine and starts none; this holds it to that.
func TestFastMatchCancelJoinsLookaheadGoroutines(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	hooked := &rowHookReader{Reader: tbl}
	eng := New(hooked)
	// Warm the index caches so the baseline is steady.
	if _, err := eng.Run(baseQuery(), Target{Uniform: true}, runOptions(ScanMatch, tbl.NumBlocks(), 4)); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		hooked.set(cancelAfterRows(cancel, 1_000))
		opts := runOptions(FastMatch, tbl.NumBlocks(), 4)
		opts.Lookahead = 16 // many windows, each marked mid-run
		if _, err := eng.RunContext(ctx, baseQuery(), Target{Uniform: true}, opts); !errors.Is(err, ErrCanceled) {
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
