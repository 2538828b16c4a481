package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// Worker-count suite for the sampling executors: every sampling round
// runs on the caller's goroutine (see sampler.go), so Options.Workers is
// inert there. TestSamplingRunsOnCallerGoroutine pins the first half —
// no goroutine is started — and the TestWorkerCountByteIdentical* tests
// pin the second the same way TestSkipOnOffByteIdentical pins skip
// on/off: canonical JSON equality over results, IOStats, and the full
// OnProgress sequence, across all three storage backends, including runs
// cut short by a row budget or a mid-scan cancellation.

func samplingExecutors() []Executor {
	return []Executor{ScanMatch, SyncMatch, FastMatch}
}

// inertWorkers are the Workers values the suite compares: the reference
// 1, the GOMAXPROCS default, and an explicit fan-out of 4.
var inertWorkers = []int{1, 0, 4}

// progressLog returns an OnProgress hook appending each frame's
// canonical form (Elapsed zeroed — the one nondeterministic field) to
// seq.
func progressLog(t testing.TB, seq *[]string) func(Progress) {
	return func(p Progress) {
		p.Elapsed = 0
		b, err := json.Marshal(&p)
		if err != nil {
			t.Fatal(err)
		}
		*seq = append(*seq, string(b))
	}
}

// TestSamplingRunsOnCallerGoroutine runs every sampling executor at
// Workers: 4 with a row hook that samples runtime.NumGoroutine() on every
// block it reads: a sampling run must never hold more goroutines than
// existed before it started.
func TestSamplingRunsOnCallerGoroutine(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	hooked := &rowHookReader{Reader: tbl}
	eng := New(hooked)
	for _, exec := range samplingExecutors() {
		t.Run(exec.String(), func(t *testing.T) {
			peak := 0
			hooked.set(func(int) {
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			})
			defer hooked.set(nil)
			opts := equivOptions(exec, tbl.NumBlocks())
			opts.Workers = 4
			base := runtime.NumGoroutine()
			res, err := eng.Run(baseQuery(), Target{Uniform: true}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.IO.BlocksRead == 0 || peak == 0 {
				t.Fatal("run read no rows through the hook")
			}
			if peak > base {
				t.Fatalf("%d goroutines during the run, %d before it", peak, base)
			}
		})
	}
}

func TestWorkerCountByteIdentical(t *testing.T) {
	for name, src := range cancelBackends(t) {
		eng := New(src)
		for _, exec := range samplingExecutors() {
			t.Run(fmt.Sprintf("%s/%s", name, exec), func(t *testing.T) {
				var wantRes string
				var wantIO IOStats
				var wantSeq []string
				for i, workers := range inertWorkers {
					opts := equivOptions(exec, src.NumBlocks())
					opts.Workers = workers
					var seq []string
					opts.OnProgress = progressLog(t, &seq)
					res, err := eng.Run(baseQuery(), Target{Uniform: true}, opts)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					got := canonicalResult(t, res)
					if i == 0 {
						wantRes, wantIO, wantSeq = got, res.IO, seq
						continue
					}
					if got != wantRes {
						t.Fatalf("workers=%d result diverges from workers=1:\n%s\nvs\n%s", workers, got, wantRes)
					}
					if res.IO != wantIO {
						t.Fatalf("workers=%d IOStats diverge: %+v vs %+v", workers, res.IO, wantIO)
					}
					if len(seq) != len(wantSeq) {
						t.Fatalf("workers=%d emitted %d progress frames, workers=1 emitted %d", workers, len(seq), len(wantSeq))
					}
					for i := range seq {
						if seq[i] != wantSeq[i] {
							t.Fatalf("workers=%d progress frame %d diverges:\n%s\nvs\n%s", workers, i, seq[i], wantSeq[i])
						}
					}
				}
			})
		}
	}
}

// TestWorkerCountByteIdenticalShortLookahead re-runs FastMatch with a
// marking window far smaller than the block space, forcing window
// retiling and the wrap-around split on every pass — the lookahead
// machinery the big-window suite above never exercises.
func TestWorkerCountByteIdenticalShortLookahead(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	eng := New(tbl)
	for _, lookahead := range []int{3, 17} {
		t.Run(fmt.Sprintf("lookahead=%d", lookahead), func(t *testing.T) {
			var want string
			for i, workers := range inertWorkers {
				opts := equivOptions(FastMatch, tbl.NumBlocks())
				opts.Lookahead = lookahead
				opts.Workers = workers
				res, err := eng.Run(baseQuery(), Target{Uniform: true}, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := canonicalResult(t, res)
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("workers=%d diverges from workers=1 at lookahead %d", workers, lookahead)
				}
			}
		})
	}
}

// TestWorkerCountByteIdenticalBudgetPartial pins the harder half of the
// determinism contract: a run stopped by a row budget cuts at the same
// block for every worker count, so even the partial result and its
// progress prefix are byte-identical.
func TestWorkerCountByteIdenticalBudgetPartial(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	eng := New(tbl)
	for _, exec := range samplingExecutors() {
		t.Run(exec.String(), func(t *testing.T) {
			var wantRes string
			var wantSeq []string
			for i, workers := range inertWorkers {
				opts := equivOptions(exec, tbl.NumBlocks())
				opts.Workers = workers
				opts.RowBudget = 3_000
				var seq []string
				opts.OnProgress = progressLog(t, &seq)
				res, err := eng.Run(baseQuery(), Target{Uniform: true}, opts)
				if !errors.Is(err, ErrBudgetExhausted) {
					t.Fatalf("workers=%d: want ErrBudgetExhausted, got %v", workers, err)
				}
				if res == nil || !res.Partial {
					t.Fatalf("workers=%d: no partial result", workers)
				}
				got := canonicalResult(t, res)
				if i == 0 {
					wantRes, wantSeq = got, seq
					continue
				}
				if got != wantRes {
					t.Fatalf("workers=%d budget partial diverges from workers=1:\n%s\nvs\n%s", workers, got, wantRes)
				}
				if fmt.Sprint(seq) != fmt.Sprint(wantSeq) {
					t.Fatalf("workers=%d budget-partial progress diverges", workers)
				}
			}
		})
	}
}

// TestWorkerCountByteIdenticalCancelPartial does the same for a row hook
// that cancels the context after a fixed number of rows were read. The
// walk reads on its own goroutine and checks the guard before every
// block, so the cut lands right after the block holding the trigger row
// for every worker count.
func TestWorkerCountByteIdenticalCancelPartial(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	hooked := &rowHookReader{Reader: tbl}
	eng := New(hooked)
	for _, exec := range samplingExecutors() {
		t.Run(exec.String(), func(t *testing.T) {
			var want string
			for i, workers := range inertWorkers {
				ctx, cancel := context.WithCancel(context.Background())
				hooked.set(cancelAfterRows(cancel, 5_000))
				opts := equivOptions(exec, tbl.NumBlocks())
				opts.Workers = workers
				res, err := eng.RunContext(ctx, baseQuery(), Target{Uniform: true}, opts)
				hooked.set(nil)
				cancel()
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("workers=%d: want ErrCanceled, got %v", workers, err)
				}
				if res == nil || !res.Partial {
					t.Fatalf("workers=%d: no partial result", workers)
				}
				got := canonicalResult(t, res)
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("workers=%d cancel partial diverges from workers=1:\n%s\nvs\n%s", workers, got, want)
				}
			}
		})
	}
}
