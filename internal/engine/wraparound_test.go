package engine

import "testing"

func TestCursorContinuesAcrossStages(t *testing.T) {
	// Stage 1 then stage-2-style sampling must consume disjoint blocks:
	// total drawn never exceeds the table, and the consumed set grows
	// monotonically.
	bs, _ := newTestSampler(t, FastMatch, 20_000, 50)
	b1, err := bs.Stage1(2000)
	if err != nil {
		t.Fatal(err)
	}
	read1 := bs.Stats().BlocksRead
	b2, err := bs.SampleUntil(map[int]int{0: 200, 3: 100})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Stats().BlocksRead <= read1 && b2.Drawn > 0 {
		t.Fatal("second phase drew tuples without reading blocks")
	}
	if b1.Drawn+b2.Drawn > 20_000 {
		t.Fatalf("phases overlap: %d + %d tuples", b1.Drawn, b2.Drawn)
	}
}

func TestWrapAroundFromLateStart(t *testing.T) {
	// Starting near the end of the block space must wrap and still meet
	// needs, for every executor.
	for _, exec := range []Executor{ScanMatch, SyncMatch, FastMatch} {
		t.Run(exec.String(), func(t *testing.T) {
			tbl := testDataset(t, 20_000, 10, 6, 51)
			e := New(tbl)
			p, err := e.Prepare(baseQuery())
			if err != nil {
				t.Fatal(err)
			}
			start := tbl.NumBlocks() - 3
			bs := testSampler(p, exec, 16, start)
			batch, err := bs.SampleUntil(map[int]int{0: 500})
			if err != nil {
				t.Fatal(err)
			}
			if batch.Counts[0] < 500 && !batch.IsExact(0) {
				t.Fatalf("wrap-around failed to meet need: %d", batch.Counts[0])
			}
			if bs.Stats().Wraps == 0 && exec != FastMatch {
				t.Fatal("no wrap recorded despite late start")
			}
		})
	}
}

func TestLookaheadWindowCrossesWrap(t *testing.T) {
	// A lookahead window larger than the remaining tail must mark both
	// segments (the wrap-split path in runLookahead).
	tbl := testDataset(t, 5_000, 8, 6, 52)
	e := New(tbl)
	p, err := e.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	nb := tbl.NumBlocks()
	bs := testSampler(p, FastMatch, nb, nb-2) // window spans the wrap
	batch, err := bs.SampleUntil(map[int]int{1: 100})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Counts[1] < 100 && !batch.IsExact(1) {
		t.Fatalf("wrap-spanning window failed: %d", batch.Counts[1])
	}
}

func TestEngineSequentialQueryReuse(t *testing.T) {
	// One engine must serve several different queries back to back with
	// cached indexes and no cross-talk.
	tbl := testDataset(t, 30_000, 12, 6, 54)
	e := New(tbl)
	q1 := Query{Z: "Z", X: []string{"X"}}
	q2 := Query{Z: "W", X: []string{"X"}}
	params := testParams()
	r1, err := e.Run(q1, Target{Uniform: true}, Options{Params: params, Executor: FastMatch, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(q2, Target{Uniform: true}, Options{Params: params, Executor: FastMatch, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r1again, err := e.Run(q1, Target{Uniform: true}, Options{Params: params, Executor: Scan})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.TopK) == 0 || len(r2.TopK) == 0 || len(r1again.TopK) == 0 {
		t.Fatal("empty results on reuse")
	}
	// The W query's candidates come from W's domain (4 values).
	for _, m := range r2.TopK {
		if m.Label[:2] != "W_" {
			t.Fatalf("cross-talk: %q in W query results", m.Label)
		}
	}
}

func TestScanIgnoresStartBlock(t *testing.T) {
	tbl := testDataset(t, 10_000, 8, 6, 55)
	e := New(tbl)
	params := testParams()
	a, err := e.Run(baseQuery(), Target{Uniform: true}, Options{Params: params, Executor: Scan, StartBlock: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(baseQuery(), Target{Uniform: true}, Options{Params: params, Executor: Scan, StartBlock: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.TopK {
		if a.TopK[i].Label != b.TopK[i].Label {
			t.Fatal("Scan results depend on start block")
		}
	}
}
