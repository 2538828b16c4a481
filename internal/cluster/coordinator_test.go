package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/datagen"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
)

// The distributed equivalence suite: whatever executor is requested, a
// K-shard coordinated answer must be BYTE-identical to a single-node
// exact scan over the concatenated data — same result JSON, same IOStats
// — including runs cut short by a row budget. This is the merge-algebra
// contract from the paper: per-shard exact histograms are a commutative
// monoid under Batch.Merge.

// planShard adapts a local engine.Plan as a cluster Shard — the
// in-process twin of the HTTP client, so the suite pins the coordinator
// algebra without network nondeterminism.
type planShard struct {
	name string
	plan *engine.Plan
	// fail, when set, makes every call after the first `allow` calls
	// return an error (simulating a shard death mid-run).
	fail  error
	allow int64
	calls atomic.Int64
}

func (p *planShard) Name() string { return p.name }

func (p *planShard) check() error {
	if p.fail != nil && p.calls.Add(1) > p.allow {
		return p.fail
	}
	return nil
}

func (p *planShard) Meta(ctx context.Context) (*engine.ShardMeta, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	m := p.plan.ShardMeta()
	return &m, nil
}

func (p *planShard) Segment(ctx context.Context, seg *engine.ShardSegment) (*engine.ShardSegmentResult, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	return p.plan.RunShardSegment(ctx, seg)
}

// clusterDataset builds one table plus its K-shard split, with shard
// boundaries aligned the way datagen -shards aligns them.
func clusterDataset(t testing.TB, rows, k int) (*colstore.Table, []*colstore.Table) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{
		Name: "t", Rows: rows, Seed: 7, Clusters: 6, BlockSize: 64,
		Columns: []datagen.ColumnSpec{
			{Name: "Z", Cardinality: 20, Skew: 0.8, ClusterConcentration: 0.5},
			{Name: "X", Cardinality: 8, Skew: 0.3, ClusterConcentration: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := ds.Table
	shards, err := colstore.ShardTables(tbl, k)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, shards
}

func testParams() core.Params {
	return core.Params{
		K: 3, Epsilon: 0.10, Delta: 0.05, Sigma: 0.002,
		Stage1Samples: 10_000, Metric: histogram.MetricL1,
	}
}

func clusterOptions(exec engine.Executor) engine.Options {
	return engine.Options{
		Params:     testParams(),
		Executor:   exec,
		StartBlock: -1,
		Seed:       11,
	}
}

func baseQuery() engine.Query { return engine.Query{Z: "Z", X: []string{"X"}} }

func shardSet(t testing.TB, parts []*colstore.Table) []Shard {
	t.Helper()
	out := make([]Shard, len(parts))
	for i, part := range parts {
		plan, err := engine.New(part).Prepare(baseQuery())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = &planShard{name: fmt.Sprintf("s%d", i), plan: plan}
	}
	return out
}

func canonical(t testing.TB, res *engine.Result) string {
	t.Helper()
	c := *res
	c.Duration = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func allExecutors() []engine.Executor {
	return []engine.Executor{engine.Scan, engine.ScanMatch, engine.SyncMatch, engine.FastMatch, engine.ParallelScan}
}

// TestCoordinatedByteIdentical is the core contract: for K in {1,2,3}
// shards and every requested executor, the coordinated answer equals the
// single-node ParallelScan answer over the concatenated data
// byte-for-byte — result and IOStats. A second input sets σ above every
// candidate's selectivity: both sides then keep every candidate, as
// HistSim's stage 1 does.
func TestCoordinatedByteIdentical(t *testing.T) {
	const rows = 40_000
	tbl, _ := clusterDataset(t, rows, 1)
	for _, in := range []struct {
		name  string
		sigma float64
	}{{"", testParams().Sigma}, {"sigma-prunes-all/", 0.9}} {
		options := func(exec engine.Executor) engine.Options {
			o := clusterOptions(exec)
			o.Params.Sigma = in.sigma
			return o
		}
		res, err := engine.New(tbl).Run(baseQuery(), engine.Target{Uniform: true}, options(engine.ParallelScan))
		if err != nil {
			t.Fatalf("single-node: %v", err)
		}
		if in.sigma > 0.5 && (len(res.Pruned) != 0 || len(res.TopK) != testParams().K) {
			t.Fatalf("σ %g: single node pruned %v and ranked %d", in.sigma, res.Pruned, len(res.TopK))
		}
		want := canonical(t, res)
		for _, exec := range allExecutors() {
			for k := 1; k <= 3; k++ {
				t.Run(fmt.Sprintf("%s%s/k=%d", in.name, exec, k), func(t *testing.T) {
					_, parts := clusterDataset(t, rows, k)
					coord := New(shardSet(t, parts)...)
					cres, err := coord.Run(context.Background(), engine.Target{Uniform: true}, options(exec))
					if err != nil {
						t.Fatalf("coordinated: %v", err)
					}
					if cres.Degraded || len(cres.Missing) != 0 {
						t.Fatalf("healthy cluster reported degraded: %+v", cres)
					}
					if got := canonical(t, cres.Result); got != want {
						t.Fatalf("k=%d result diverges from single node:\n%s\nvs\n%s", k, got, want)
					}
					if cres.Result.IO != res.IO {
						t.Fatalf("k=%d IOStats diverge: %+v vs %+v", k, cres.Result.IO, res.IO)
					}
				})
			}
		}
	}
}

// TestCoordinatedCandidateTarget pins the scatter-gather target path:
// a candidate target is itself resolved by summing per-shard exact
// histograms, and must match the single node bit-for-bit.
func TestCoordinatedCandidateTarget(t *testing.T) {
	const rows = 40_000
	tbl, parts := clusterDataset(t, rows, 3)
	target := engine.Target{Candidate: "Z_1"}
	res, err := engine.New(tbl).Run(baseQuery(), target, clusterOptions(engine.ParallelScan))
	if err != nil {
		t.Fatalf("single-node: %v", err)
	}
	for _, exec := range []engine.Executor{engine.Scan, engine.SyncMatch} {
		coord := New(shardSet(t, parts)...)
		cres, err := coord.Run(context.Background(), target, clusterOptions(exec))
		if err != nil {
			t.Fatalf("%s coordinated: %v", exec, err)
		}
		if got, want := canonical(t, cres.Result), canonical(t, res); got != want {
			t.Fatalf("%s candidate-target result diverges:\n%s\nvs\n%s", exec, got, want)
		}
	}
}

// countingShard counts the segment calls its shard answers.
type countingShard struct {
	Shard
	segments atomic.Int64
}

func (c *countingShard) Segment(ctx context.Context, seg *engine.ShardSegment) (*engine.ShardSegmentResult, error) {
	c.segments.Add(1)
	return c.Shard.Segment(ctx, seg)
}

// TestCoordinatedOneSegmentPerShard: a coordinated query, whatever its
// executor and target, costs each live shard exactly one segment call —
// a candidate target comes from the merged scan partials, not from a
// round of its own — budgeted or not, and each shard's status says so.
func TestCoordinatedOneSegmentPerShard(t *testing.T) {
	_, parts := clusterDataset(t, 40_000, 3)
	for _, target := range []engine.Target{{Uniform: true}, {Candidate: "Z_1"}} {
		for _, exec := range allExecutors() {
			for _, budget := range []int64{0, 40_000} {
				shards := shardSet(t, parts)
				counted := make([]*countingShard, len(shards))
				for i, sh := range shards {
					counted[i] = &countingShard{Shard: sh}
					shards[i] = counted[i]
				}
				opts := clusterOptions(exec)
				opts.RowBudget = budget
				cres, err := New(shards...).Run(context.Background(), target, opts)
				if err != nil || !cres.Result.Exact {
					t.Fatalf("%+v %s budget=%d: err %v", target, exec, budget, err)
				}
				for i, c := range counted {
					if n, st := c.segments.Load(), cres.Shards[i].Segments; n != 1 || st != 1 {
						t.Fatalf("%+v %s budget=%d: shard %s answered %d segments, status says %d; want 1",
							target, exec, budget, c.Name(), n, st)
					}
				}
			}
		}
	}
}

// TestCoordinatedBudgetPartial pins the interruption contract: whatever
// executor is requested, a row budget must stop a coordinated run at the
// same block as the single-node Scan — identical partial result bytes,
// identical typed error text. A candidate target is the candidate's
// histogram at that stop point on both sides.
func TestCoordinatedBudgetPartial(t *testing.T) {
	const rows = 40_000
	tbl, _ := clusterDataset(t, rows, 1)
	single := engine.New(tbl)
	for _, tc := range []struct {
		name   string
		target engine.Target
	}{{"", engine.Target{Uniform: true}}, {"/target=Z_1", engine.Target{Candidate: "Z_1"}}} {
		for _, exec := range allExecutors() {
			for _, budget := range []int64{3_000, 12_000} {
				t.Run(fmt.Sprintf("%s/budget=%d%s", exec, budget, tc.name), func(t *testing.T) {
					budgetPartial(t, single, rows, exec, budget, tc.target)
				})
			}
		}
	}
}

// budgetPartial runs one TestCoordinatedBudgetPartial case.
func budgetPartial(t *testing.T, single *engine.Engine, rows int, exec engine.Executor, budget int64, target engine.Target) {
	opts := clusterOptions(engine.Scan)
	opts.RowBudget = budget
	res, err := single.Run(baseQuery(), target, opts)
	if err == nil || !errors.Is(err, engine.ErrBudgetExhausted) {
		t.Fatalf("single-node: expected budget stop, got %v", err)
	}
	for k := 2; k <= 3; k++ {
		_, parts := clusterDataset(t, rows, k)
		coord := New(shardSet(t, parts)...)
		copts := clusterOptions(exec)
		copts.RowBudget = budget
		cres, cerr := coord.Run(context.Background(), target, copts)
		if cerr == nil || !errors.Is(cerr, engine.ErrBudgetExhausted) {
			t.Fatalf("k=%d: expected budget stop, got %v", k, cerr)
		}
		if cerr.Error() != err.Error() {
			t.Fatalf("k=%d stop error diverges: %q vs %q", k, cerr, err)
		}
		if res == nil || cres == nil {
			t.Fatalf("k=%d: missing partial result (%v, %v)", k, res, cres)
		}
		if got, want := canonical(t, cres.Result), canonical(t, res); got != want {
			t.Fatalf("k=%d partial result diverges:\n%s\nvs\n%s", k, got, want)
		}
	}
}

// TestCoordinatedCancel pins cancellation: a pre-canceled context must
// surface the same typed error as the single-node guard.
func TestCoordinatedCancel(t *testing.T) {
	_, parts := clusterDataset(t, 40_000, 2)
	coord := New(shardSet(t, parts)...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := coord.Run(ctx, engine.Target{Uniform: true}, clusterOptions(engine.SyncMatch))
	if err == nil || !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
}

// cancelingShard answers its meta, then stands in for a segment call the
// caller walks away from: the second segment call of the run cancels the
// run's context and fails the way an aborted HTTP round trip does.
type cancelingShard struct {
	Shard
	calls  *atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelingShard) Segment(ctx context.Context, seg *engine.ShardSegment) (*engine.ShardSegmentResult, error) {
	if c.calls.Add(1) == 2 {
		c.cancel()
		return nil, fmt.Errorf("cluster: shard %q: %w", c.Name(), ctx.Err())
	}
	return c.Shard.Segment(ctx, seg)
}

// TestCoordinatedCancelMidRunIsNotShardLoss: a segment call that fails
// because the run's own context was canceled is the caller's
// cancellation, not shard loss — the run stops with the single-node
// guard's typed error and a best-effort partial, and every shard stays
// healthy and unnamed.
func TestCoordinatedCancelMidRunIsNotShardLoss(t *testing.T) {
	for _, exec := range allExecutors() {
		t.Run(exec.String(), func(t *testing.T) {
			_, parts := clusterDataset(t, 40_000, 3)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			shards := shardSet(t, parts)
			for i, sh := range shards {
				shards[i] = &cancelingShard{Shard: sh, calls: &calls, cancel: cancel}
			}
			cres, err := New(shards...).Run(ctx, engine.Target{Uniform: true}, clusterOptions(exec))
			if !errors.Is(err, engine.ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
			}
			if cres == nil || !cres.Result.Partial || cres.Result.Exact {
				t.Fatalf("canceled run must carry a best-effort partial, got %+v", cres)
			}
			if cres.Degraded || len(cres.Missing) != 0 {
				t.Fatalf("cancellation reported as shard loss: degraded=%v missing=%v", cres.Degraded, cres.Missing)
			}
			for _, s := range cres.Shards {
				if !s.Healthy || s.Error != "" {
					t.Fatalf("shard %s marked unhealthy (%q) by the caller's cancellation", s.Name, s.Error)
				}
			}
		})
	}
}

// TestCoordinatedShardLoss pins degraded-but-honest: a shard that dies
// mid-run yields a 200-style partial — Partial:true, the dead shard
// named in Missing, totals covering only data actually read — never an
// error and never a silently wrong total.
func TestCoordinatedShardLoss(t *testing.T) {
	const rows = 40_000
	for _, exec := range allExecutors() {
		t.Run(exec.String(), func(t *testing.T) {
			_, parts := clusterDataset(t, rows, 3)
			shards := shardSet(t, parts)
			// Let the dying shard answer its meta, then fail its first
			// segment call — a death between connect and execution.
			dying := shards[1].(*planShard)
			dying.fail = errors.New("connection refused")
			dying.allow = 1
			coord := New(shards...)
			cres, err := coord.Run(context.Background(), engine.Target{Uniform: true}, clusterOptions(exec))
			if err != nil {
				t.Fatalf("shard loss must degrade, not error: %v", err)
			}
			if !cres.Degraded {
				t.Fatal("shard loss not reported as degraded")
			}
			if len(cres.Missing) != 1 || cres.Missing[0] != "s1" {
				t.Fatalf("missing shards %v, want [s1]", cres.Missing)
			}
			if !cres.Result.Partial || cres.Result.Exact {
				t.Fatalf("degraded run must be Partial and not Exact: partial=%v exact=%v",
					cres.Result.Partial, cres.Result.Exact)
			}
			var unhealthy int
			for _, s := range cres.Shards {
				if !s.Healthy {
					unhealthy++
					if s.Error == "" {
						t.Fatal("dead shard status carries no error")
					}
				}
			}
			if unhealthy != 1 {
				t.Fatalf("%d unhealthy shards, want 1", unhealthy)
			}
			// Honest totals: the fold can only contain data actually read.
			maxRows := int64(parts[0].NumRows() + parts[1].NumRows() + parts[2].NumRows())
			if cres.Result.IO.TuplesRead > maxRows {
				t.Fatalf("degraded run claims %d tuples read of %d total", cres.Result.IO.TuplesRead, maxRows)
			}
		})
	}
}

// TestCoordinatedShardLossCandidateTarget: a degraded run ranks against
// the candidate target over the rows it read — the target ranks itself
// at distance 0 — and stays Degraded and Partial with the dead shard
// named; when no live shard holds a row of the target, there is nothing
// to rank against, and the run is an error naming the missing shard.
func TestCoordinatedShardLossCandidateTarget(t *testing.T) {
	_, parts := clusterDataset(t, 40_000, 3)
	target := engine.Target{Candidate: "Z_1"}
	dying := func(shards []Shard) {
		sh := shards[1].(*planShard)
		sh.fail, sh.allow = errors.New("connection refused"), 1
	}
	shards := shardSet(t, parts)
	dying(shards)
	cres, err := New(shards...).Run(context.Background(), target, clusterOptions(engine.ParallelScan))
	if err != nil {
		t.Fatalf("shard loss must degrade, not error: %v", err)
	}
	res := cres.Result
	if !cres.Degraded || len(cres.Missing) != 1 || cres.Missing[0] != "s1" || !res.Partial || res.Exact {
		t.Fatalf("degraded=%v missing=%v partial=%v exact=%v, want a partial missing s1",
			cres.Degraded, cres.Missing, res.Partial, res.Exact)
	}
	if len(res.TopK) == 0 || res.TopK[0].Label != target.Candidate || res.TopK[0].Distance != 0 {
		t.Fatalf("top match %+v, want the target at distance 0", res.TopK)
	}

	shards = shardSet(t, parts)
	dying(shards)
	meta, err := shards[0].Meta(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	id := slices.Index(meta.Labels, target.Candidate)
	for _, i := range []int{0, 2} { // the live shards hold no row of the target
		shards[i] = &lyingShard{Shard: shards[i], partial: func(b *core.Batch) *core.Batch {
			b.Hists[id], b.Counts[id] = nil, 0
			return b
		}}
	}
	cres, err = New(shards...).Run(context.Background(), target, clusterOptions(engine.ParallelScan))
	if err == nil || cres != nil || !strings.Contains(err.Error(), "s1") {
		t.Fatalf("target unread: result %+v, err %v; want an error naming s1", cres, err)
	}
}

// TestCoordinatedDeadAtConnect: a shard unreachable at connect time
// degrades the run up front; all shards unreachable is an error.
func TestCoordinatedDeadAtConnect(t *testing.T) {
	_, parts := clusterDataset(t, 40_000, 2)
	shards := shardSet(t, parts)
	dead := shards[1].(*planShard)
	dead.fail = errors.New("no route to host")
	dead.allow = 0
	coord := New(shards...)
	cres, err := coord.Run(context.Background(), engine.Target{Uniform: true}, clusterOptions(engine.ScanMatch))
	if err != nil {
		t.Fatalf("dead-at-connect must degrade, not error: %v", err)
	}
	if !cres.Degraded || len(cres.Missing) != 1 || cres.Missing[0] != "s1" {
		t.Fatalf("expected degraded run missing s1, got %+v", cres)
	}
	if !cres.Result.Partial {
		t.Fatal("degraded run must be Partial")
	}

	for _, s := range shards {
		ps := s.(*planShard)
		ps.fail = errors.New("no route to host")
		ps.allow = 0
		ps.calls.Store(0)
	}
	if _, err := New(shards...).Run(context.Background(), engine.Target{Uniform: true}, clusterOptions(engine.ScanMatch)); err == nil {
		t.Fatal("all shards unreachable must be an error")
	}
}

// lyingShard answers like its inner shard, except that meta and segment
// results pass through the edits first: the fake for a shard whose
// answers disagree with the domain it promised.
type lyingShard struct {
	Shard
	meta    func(*engine.ShardMeta)
	partial func(b *core.Batch) *core.Batch
}

func (l *lyingShard) Meta(ctx context.Context) (*engine.ShardMeta, error) {
	m, err := l.Shard.Meta(ctx)
	if err == nil && l.meta != nil {
		l.meta(m)
	}
	return m, err
}

func (l *lyingShard) Segment(ctx context.Context, seg *engine.ShardSegment) (*engine.ShardSegmentResult, error) {
	res, err := l.Shard.Segment(ctx, seg)
	if err != nil || l.partial == nil {
		return res, err
	}
	b, err := core.DecodeBatch(res.Batch)
	if err != nil {
		return nil, err
	}
	res.Batch = core.EncodeBatch(l.partial(b))
	return res, nil
}

// TestCoordinatorRejectsShortMeta: a shard whose meta names one
// candidate fewer than it counts is refused at connect with an error.
func TestCoordinatorRejectsShortMeta(t *testing.T) {
	_, parts := clusterDataset(t, 40_000, 2)
	shards := shardSet(t, parts)
	shards[1] = &lyingShard{Shard: shards[1], meta: func(m *engine.ShardMeta) {
		m.Labels = m.Labels[:len(m.Labels)-1]
	}}
	_, err := New(shards...).Run(context.Background(), engine.Target{Uniform: true}, clusterOptions(engine.ParallelScan))
	if err == nil || !strings.Contains(err.Error(), `shard "s1"`) {
		t.Fatalf("err = %v, want a connect error naming s1", err)
	}
}

// TestCoordinatorDegradesOnNarrowScanPartial: a scan partial whose
// histograms are one group short is a failed segment: its shard is
// named missing and the answer is an honest partial.
func TestCoordinatorDegradesOnNarrowScanPartial(t *testing.T) {
	_, parts := clusterDataset(t, 40_000, 3)
	shards := shardSet(t, parts)
	shards[1] = &lyingShard{Shard: shards[1], partial: func(b *core.Batch) *core.Batch {
		for i, h := range b.Hists {
			if h != nil {
				b.Hists[i] = histogram.FromCounts(h.Counts()[1:])
			}
		}
		return b
	}}
	cres, err := New(shards...).Run(context.Background(), engine.Target{Uniform: true}, clusterOptions(engine.ParallelScan))
	if err != nil {
		t.Fatalf("a failed scan segment must degrade, not error: %v", err)
	}
	if !cres.Degraded || len(cres.Missing) != 1 || cres.Missing[0] != "s1" {
		t.Fatalf("expected a degraded run missing s1, got degraded=%v missing=%v", cres.Degraded, cres.Missing)
	}
	if !cres.Result.Partial || cres.Result.Exact {
		t.Fatalf("degraded run must be Partial and not Exact: partial=%v exact=%v", cres.Result.Partial, cres.Result.Exact)
	}
}
