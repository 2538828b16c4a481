package engine

import (
	"sync"
	"testing"
)

// TestConcurrentEngineStress hammers one shared Engine from many
// goroutines with a mix of query shapes, so concurrent index builds, plan
// preparation, and runs all overlap. Run under -race it
// verifies the singleflight-guarded caches and the read-only mappers.
func TestConcurrentEngineStress(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 31)
	e := New(tbl)

	// Distinct candidate columns force concurrent index builds (Z, X, W
	// all serve as Z somewhere below); direct Index calls race with them too.
	queries := []Query{
		{Z: "Z", X: []string{"X"}},
		{Z: "Z", X: []string{"X", "W"}},
		{Z: "X", X: []string{"W"}},
		{Z: "W", X: []string{"X"}},
	}
	executors := []Executor{Scan, ParallelScan, ScanMatch, SyncMatch, FastMatch}

	const goroutines = 12
	const runsPer = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*runsPer)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < runsPer; r++ {
				q := queries[(g+r)%len(queries)]
				exec := executors[(g*runsPer+r)%len(executors)]
				params := testParams()
				params.Sigma = 0.001
				opts := Options{
					Params: params, Executor: exec,
					Seed: int64(g*100 + r), StartBlock: -1,
					Lookahead: 32, Workers: 3,
				}
				if _, err := e.Run(q, Target{Uniform: true}, opts); err != nil {
					errs <- err
					return
				}
				if (g+r)%3 == 0 {
					if _, err := e.Index("W"); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentSharedPlan runs one prepared Plan from many goroutines
// concurrently and checks every exact run agrees with the sequential
// ground truth.
func TestConcurrentSharedPlan(t *testing.T) {
	tbl := testDataset(t, 30_000, 15, 6, 32)
	e := New(tbl)
	p, err := e.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	target, err := p.ResolveTarget(Target{Uniform: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := p.RunWithTarget(target, Options{Params: testParams(), Executor: Scan})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	results := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			exec := ParallelScan
			if g%2 == 1 {
				exec = FastMatch
			}
			results[g], errs[g] = p.RunWithTarget(target, Options{
				Params: testParams(), Executor: exec,
				Seed: int64(g), StartBlock: -1, Lookahead: 16, Workers: 2,
			})
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if g%2 == 0 {
			// ParallelScan runs must be byte-identical to the Scan truth
			// even when racing with FastMatch runs on the same Plan.
			requireIdenticalResults(t, truth, results[g])
		}
	}
}

// TestBuildCacheSingleflight checks that concurrent misses on one key
// run the build exactly once.
func TestBuildCacheSingleflight(t *testing.T) {
	c := newBuildCache[int]()
	var mu sync.Mutex
	builds := 0
	build := func() (int, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		return 42, nil
	}
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.get("k", build)
			if err != nil || v != 42 {
				t.Errorf("get = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
}

// TestBuildCachePanicRecovery checks that a panicking build neither
// poisons the key (later gets must retry, not deadlock) nor swallows the
// panic on the leader.
func TestBuildCachePanicRecovery(t *testing.T) {
	c := newBuildCache[int]()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic not propagated to leader")
			}
		}()
		_, _ = c.get("k", func() (int, error) { panic("boom") })
	}()
	v, err := c.get("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("get after panic = %d, %v; want 7, nil", v, err)
	}
}
