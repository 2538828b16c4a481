package engine

import (
	"testing"

	"fastmatch/internal/core"
)

func newTestSampler(t *testing.T, exec Executor, rows int, seed int64) (*blockSampler, *Engine) {
	t.Helper()
	tbl := testDataset(t, rows, 12, 6, seed)
	e := New(tbl)
	p, err := e.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	return testSampler(p, exec, 16, 0), e
}

// testSampler binds a single-worker sampler to a plan the way these unit
// tests drive it: no guard, default knobs.
func testSampler(p *Plan, exec Executor, lookahead, start int) *blockSampler {
	return p.newSampler(Options{Executor: exec, Lookahead: lookahead, Workers: 1}, start, nil)
}

func TestExecutorString(t *testing.T) {
	names := map[Executor]string{
		Scan: "Scan", ScanMatch: "ScanMatch", SyncMatch: "SyncMatch",
		FastMatch: "FastMatch", Executor(9): "Executor(9)",
	}
	for e, want := range names {
		if e.String() != want {
			t.Errorf("String() = %q, want %q", e.String(), want)
		}
	}
}

func TestSamplerInterfaces(t *testing.T) {
	bs, _ := newTestSampler(t, ScanMatch, 5000, 20)
	var _ core.Sampler = bs
	if bs.NumCandidates() != 12 || bs.Groups() != 6 {
		t.Fatalf("geometry: %d candidates %d groups", bs.NumCandidates(), bs.Groups())
	}
	if bs.TotalRows() != 5000 {
		t.Fatalf("TotalRows = %d", bs.TotalRows())
	}
}

func TestStage1DrawsRequested(t *testing.T) {
	bs, _ := newTestSampler(t, ScanMatch, 10_000, 21)
	batch, err := bs.Stage1(1000)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Drawn < 1000 {
		t.Fatalf("drew %d < 1000", batch.Drawn)
	}
	// Block granularity means slight overshoot, bounded by one block.
	if batch.Drawn > 1000+64 {
		t.Fatalf("overshoot too large: %d", batch.Drawn)
	}
	if batch.Exhausted {
		t.Fatal("should not exhaust")
	}
}

func TestStage1ExhaustsSmallData(t *testing.T) {
	bs, _ := newTestSampler(t, ScanMatch, 500, 22)
	batch, err := bs.Stage1(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !batch.Exhausted || batch.Drawn != 500 {
		t.Fatalf("exhaustion wrong: drawn=%d exhausted=%v", batch.Drawn, batch.Exhausted)
	}
	for i, ex := range batch.Exact {
		if !ex {
			t.Fatalf("candidate %d not marked exact after exhaustion", i)
		}
	}
}

func TestSampleUntilMeetsNeeds(t *testing.T) {
	for _, exec := range []Executor{ScanMatch, SyncMatch, FastMatch} {
		t.Run(exec.String(), func(t *testing.T) {
			bs, _ := newTestSampler(t, exec, 50_000, 23)
			need := map[int]int{0: 100, 1: 50, 5: 200}
			batch, err := bs.SampleUntil(need)
			if err != nil {
				t.Fatal(err)
			}
			for id, n := range need {
				if batch.Counts[id] < int64(n) && !batch.IsExact(id) {
					t.Errorf("candidate %d got %d < %d and not exact", id, batch.Counts[id], n)
				}
			}
		})
	}
}

func TestSampleUntilUnknownCandidate(t *testing.T) {
	bs, _ := newTestSampler(t, ScanMatch, 1000, 24)
	if _, err := bs.SampleUntil(map[int]int{99: 1}); err == nil {
		t.Fatal("unknown candidate accepted")
	}
}

func TestSampleUntilEmptyNeed(t *testing.T) {
	bs, _ := newTestSampler(t, FastMatch, 1000, 25)
	batch, err := bs.SampleUntil(map[int]int{})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Drawn != 0 {
		t.Fatalf("empty need drew %d tuples", batch.Drawn)
	}
}

func TestSampleUntilImpossibleNeedMarksExact(t *testing.T) {
	for _, exec := range []Executor{ScanMatch, SyncMatch, FastMatch} {
		t.Run(exec.String(), func(t *testing.T) {
			bs, _ := newTestSampler(t, exec, 3000, 26)
			// Demand far more than any candidate has.
			batch, err := bs.SampleUntil(map[int]int{0: 1_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if !batch.IsExact(0) {
				t.Fatal("candidate with impossible need not marked exact")
			}
		})
	}
}

func TestBatchesAreFresh(t *testing.T) {
	// Two successive batches must contain disjoint tuples: combined drawn
	// never exceeds the table size.
	bs, _ := newTestSampler(t, FastMatch, 20_000, 27)
	b1, err := bs.SampleUntil(map[int]int{0: 300})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := bs.SampleUntil(map[int]int{0: 300})
	if err != nil {
		t.Fatal(err)
	}
	if b1.Drawn+b2.Drawn > int64(20_000) {
		t.Fatalf("batches overlap: %d + %d > rows", b1.Drawn, b2.Drawn)
	}
	if b2.Counts[0] < 300 && !b2.IsExact(0) {
		t.Fatal("second batch did not meet need")
	}
}

func TestCumulativeBatchesEqualExactOnExhaustion(t *testing.T) {
	for _, exec := range []Executor{ScanMatch, SyncMatch, FastMatch} {
		t.Run(exec.String(), func(t *testing.T) {
			bs, e := newTestSampler(t, exec, 4000, 28)
			// Exhaust via repeated sampling.
			acc := make([]int64, bs.NumCandidates())
			for {
				batch, err := bs.SampleUntil(map[int]int{0: 1 << 30})
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range batch.Counts {
					acc[i] += c
				}
				if batch.Exhausted {
					break
				}
			}
			// Compare with exact scan counts.
			z, _ := e.Source().ColumnByName("Z")
			exact := make([]int64, bs.NumCandidates())
			for i := 0; i < e.Source().NumRows(); i++ {
				exact[z.Code(i)]++
			}
			for i := range acc {
				if acc[i] != exact[i] {
					t.Fatalf("candidate %d: accumulated %d != exact %d", i, acc[i], exact[i])
				}
			}
		})
	}
}

func TestSyncMatchSkipsForRareActive(t *testing.T) {
	// When only one rare candidate is active, AnyActive should skip most
	// blocks.
	tbl := testDataset(t, 100_000, 100, 6, 29)
	e := New(tbl)
	p, err := e.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	// Find a rare candidate.
	z, _ := tbl.Column("Z")
	counts := make([]int, 100)
	for i := 0; i < tbl.NumRows(); i++ {
		counts[z.Code(i)]++
	}
	rare, rareCount := 0, 1<<31
	for i, c := range counts {
		if c > 0 && c < rareCount {
			rare, rareCount = i, c
		}
	}
	bs := testSampler(p, SyncMatch, 16, 0)
	batch, err := bs.SampleUntil(map[int]int{rare: rareCount})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Counts[rare] != int64(rareCount) {
		t.Fatalf("rare candidate got %d of %d", batch.Counts[rare], rareCount)
	}
	if bs.Stats().BlocksSkipped == 0 {
		t.Fatal("SyncMatch with one rare active candidate skipped nothing")
	}
}

func TestLookaheadWindowSizes(t *testing.T) {
	// Tiny lookahead values must still work (including 1).
	for _, la := range []int{1, 2, 7, 1024} {
		tbl := testDataset(t, 10_000, 10, 6, 30)
		e := New(tbl)
		p, err := e.Prepare(baseQuery())
		if err != nil {
			t.Fatal(err)
		}
		bs := testSampler(p, FastMatch, la, 3)
		batch, err := bs.SampleUntil(map[int]int{0: 50})
		if err != nil {
			t.Fatal(err)
		}
		if batch.Counts[0] < 50 && !batch.IsExact(0) {
			t.Fatalf("lookahead=%d failed to meet need", la)
		}
	}
}

func TestDefaultLookahead(t *testing.T) {
	tbl := testDataset(t, 1000, 5, 4, 31)
	e := New(tbl)
	p, _ := e.Prepare(baseQuery())
	bs := testSampler(p, FastMatch, 0, 0)
	if bs.lookahead != 1024 {
		t.Fatalf("default lookahead = %d", bs.lookahead)
	}
}

func TestStartBlockNormalization(t *testing.T) {
	tbl := testDataset(t, 1000, 5, 4, 32)
	e := New(tbl)
	p, _ := e.Prepare(baseQuery())
	nb := tbl.NumBlocks()
	for _, start := range []int{-1, -nb - 3, nb + 5, 0} {
		bs := testSampler(p, ScanMatch, 16, start)
		if bs.cursor < 0 || bs.cursor >= nb {
			t.Fatalf("start %d normalized to out-of-range cursor %d", start, bs.cursor)
		}
	}
}
