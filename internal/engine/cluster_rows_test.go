package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fastmatch/internal/cluster"
	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// The conformance matrix's cluster rows. Rows cluster-1 and cluster-3
// split each shape's table with colstore.ShardTables, serve every part
// through an in-process faultShard, and answer the shape through
// cluster.Coordinator.Run under every executor. The coordinator answers
// every query by one exact pass, whatever executor is asked for, so its
// cells are held to the shape's single-node Scan cell. A seeded pairwise
// cover of executor × workers × skip × stop × observers picks the
// healthy cells; every fault meets every executor, with one faulty shard
// (the middle one) and the others healthy:
//
//	cell              held to                by
//	stop none         Scan, same skip        bytes: answer, IOStats; each
//	                                         shard answers one segment
//	stop budget       Scan, same skip and    bytes: answer, IOStats, error
//	                  budget                 text
//	stop cancel       its own run            ErrCanceled over
//	                                         context.Canceled, no shard
//	                                         named, reads ≤ the stop point
//	                                         + one block per worker and
//	                                         shard
//	observed          its own run            span IO sums to IOStats
//	fault: the shard  its own run            Degraded and Partial, that
//	  is lost                                shard alone named, every
//	                                         match's counts the sum over
//	                                         the live parts; an error
//	                                         naming it when no live part
//	                                         holds the candidate target
//	fault: refused    its own run            an error naming the shard, no
//	  at connect, or                         segment call
//	  no shard left
//	fault: the run    its own run            ErrCanceled over the cause, no
//	  ends mid-call                          shard named, counts at most
//	                                         the live parts' sum
//	every cell        its own run            every shard call returned
//	                                         before Run did
//
// Stale generations are not a fault row: Coordinator.Run never reads
// ShardMeta.Generation (only the server's cache key does).

func init() { engine.ClusterRows = clusterRows }

// fault is what a faultShard does wrong.
type fault int

const (
	healthy fault = iota
	deadAtConnect
	diesAfterMeta
	flapping // fails every other call, the segment call first
	truncatedPartial
	narrowPartial // every histogram one group short
	shortMeta     // names one candidate fewer than it counts
	cancelsRun    // the caller walks away mid-call
	blocksToDeadline
	repeatedShard // listed twice
)

var faultNames = []string{"none", "dead-at-connect", "dies-after-meta", "flapping",
	"truncated-partial", "narrow-partial", "short-meta", "cancels-run", "blocks-to-deadline", "repeated-shard"}

// lost: the coordinator drops the shard and degrades. refused: it
// refuses the shard set at connect.
func (f fault) lost() bool    { return f >= deadAtConnect && f <= narrowPartial }
func (f fault) refused() bool { return f == shortMeta || f == repeatedShard }

// faultShard serves one part's plan as a cluster shard, in process, and
// injects its fault into the calls it answers. A shard blocked to the
// deadline lets the deadline pass only once every other shard's segment
// call has returned (others), as a silent shard's deadline would.
type faultShard struct {
	name   string
	plan   *engine.Plan
	fault  fault
	ctx    *runCtx
	others *sync.WaitGroup

	calls, segments, inflight atomic.Int64
}

func (s *faultShard) Name() string { return s.name }

// call counts a call in flight and says whether the fault fails it.
func (s *faultShard) call() (done func(), fail bool) {
	s.inflight.Add(1)
	n := s.calls.Add(1)
	fail = s.fault == deadAtConnect || s.fault == diesAfterMeta && n > 1 || s.fault == flapping && n%2 == 0
	return func() { s.inflight.Add(-1) }, fail
}

func (s *faultShard) Meta(ctx context.Context) (*engine.ShardMeta, error) {
	done, fail := s.call()
	defer done()
	if fail {
		return nil, errors.New("connection refused")
	}
	m := s.plan.ShardMeta()
	if s.fault == shortMeta {
		m.Labels = m.Labels[:len(m.Labels)-1]
	}
	return &m, nil
}

func (s *faultShard) Segment(ctx context.Context, seg *engine.ShardSegment) (*engine.ShardSegmentResult, error) {
	done, fail := s.call()
	defer done()
	s.segments.Add(1)
	switch {
	case fail:
		return nil, errors.New("connection reset by peer")
	case s.fault == cancelsRun:
		s.ctx.end(context.Canceled)
		return nil, fmt.Errorf("shard %q: %w", s.name, ctx.Err())
	case s.fault == blocksToDeadline:
		s.others.Wait()
		s.ctx.end(context.DeadlineExceeded)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if s.others != nil {
		defer s.others.Done()
	}
	res, err := s.plan.RunShardSegment(ctx, seg)
	switch {
	case err != nil:
	case s.fault == truncatedPartial:
		res.Batch = res.Batch[:len(res.Batch)/2]
	case s.fault == narrowPartial:
		b, err := core.DecodeBatch(res.Batch)
		if err != nil {
			return nil, err
		}
		for i, h := range b.Hists {
			if h != nil {
				b.Hists[i] = histogram.FromCounts(h.Counts()[1:])
			}
		}
		res.Batch = core.EncodeBatch(b)
	}
	return res, err
}

// runCtx is a cell's run context. end stops it the way a caller walking
// away (context.Canceled) or a passing deadline
// (context.DeadlineExceeded) does, at a point the cell picks rather than
// a clock's, so no cell waits on a timer.
type runCtx struct {
	context.Context
	done chan struct{}
	once sync.Once
	err  error
}

func newRunCtx() *runCtx { return &runCtx{Context: context.Background(), done: make(chan struct{})} }

func (c *runCtx) Done() <-chan struct{} { return c.done }

func (c *runCtx) Err() error {
	select {
	case <-c.done:
		return c.err
	default:
		return nil
	}
}

func (c *runCtx) end(cause error) { c.once.Do(func() { c.err = cause; close(c.done) }) }

// clusterCell is one coordinated run of a shape.
type clusterCell struct {
	k       int
	exec    engine.Executor
	workers int
	skip    bool
	stop    int // index into engine.StopNames
	observe bool
	fault   fault
}

func (c clusterCell) String() string {
	return fmt.Sprintf("cluster-%d/%s/workers=%d/skip=%v/stop=%s/observers=%v/fault=%s",
		c.k, c.exec, c.workers, c.skip, engine.StopNames[c.stop], c.observe, faultNames[c.fault])
}

// clusterRow is one shard layout of a shape: per part, its row hook, its
// plans without and with skip masks, and its exact counts.
type clusterRow struct {
	m     *engine.MatrixShape
	hooks []*engine.HookReader
	plans map[bool][]*engine.Plan
	ref   [][]*histogram.Histogram
}

func clusterRows(t *testing.T, m *engine.MatrixShape, seed int64) {
	execs := engine.MatrixExecutors
	for ri, k := range []int{1, 3} {
		parts, err := colstore.ShardTables(m.Table(), k)
		if err != nil {
			t.Fatal(err)
		}
		r := &clusterRow{m: m, plans: map[bool][]*engine.Plan{}}
		for _, part := range parts {
			hr := engine.NewHookReader(part)
			p, err := engine.New(hr).Prepare(m.Query())
			if err != nil {
				t.Fatal(err)
			}
			r.hooks = append(r.hooks, hr)
			r.plans[false] = append(r.plans[false], engine.WithoutSkipMasks(p))
			r.plans[true] = append(r.plans[true], p)
			r.ref = append(r.ref, engine.RefHists(p))
		}
		for _, row := range engine.PairwiseCover(seed*1000+int64(900+ri), len(execs), len(engine.MatrixWorkers), 2, 3, 2) {
			r.check(t, clusterCell{k: k, exec: execs[row[0]], workers: engine.MatrixWorkers[row[1]],
				skip: row[2] == 1, stop: row[3], observe: row[4] == 1})
		}
		for f := deadAtConnect; f <= repeatedShard; f++ {
			for e, exec := range execs {
				i := int(f) + e
				r.check(t, clusterCell{k: k, exec: exec, workers: engine.MatrixWorkers[i%4],
					skip: true, observe: i%2 == 1, fault: f})
			}
		}
	}
}

// check runs c and holds it to the rules in a subtest named after it.
func (r *clusterRow) check(t *testing.T, c clusterCell) {
	ctx := newRunCtx()
	var others sync.WaitGroup
	bad := c.k / 2 // the faulty shard
	var shards []cluster.Shard
	var fakes []*faultShard
	for i, p := range r.plans[c.skip] {
		s := &faultShard{name: fmt.Sprintf("s%d", i), plan: p, ctx: ctx}
		if i == bad {
			s.fault = c.fault
		}
		if c.fault == blocksToDeadline {
			s.others = &others
			if i != bad {
				others.Add(1)
			}
		}
		shards, fakes = append(shards, s), append(fakes, s)
		if i == bad && c.fault == repeatedShard {
			dup := &faultShard{name: s.name, plan: p, ctx: ctx}
			shards, fakes = append(shards, dup), append(fakes, dup)
		}
	}
	opts := r.m.Options(c.exec, c.workers)
	budget, cancelAt := r.m.StopPoints()
	switch c.stop {
	case 1:
		opts.RowBudget = budget
	case 2:
		hook := engine.CancelAfterRows(func() { ctx.end(context.Canceled) }, cancelAt)
		for _, h := range r.hooks {
			h.Set(hook)
			defer h.Set(nil)
		}
	}
	var tr *trace.Trace
	if c.observe {
		tr = trace.New("matrix")
		opts.Trace, opts.OnProgress = tr, func(engine.Progress) {}
	}
	cres, err := cluster.New(shards...).Run(ctx, r.m.Target(), opts)
	var res *engine.Result
	if cres != nil {
		res = cres.Result
	}
	t.Run(c.String(), func(t *testing.T) {
		for _, s := range fakes {
			if n := s.inflight.Load(); n != 0 {
				t.Errorf("shard %s has %d calls in flight after Run returned", s.name, n)
			}
		}
		if tr != nil && res != nil {
			tr.End()
			if sum := tr.Snapshot().SumIO(); sum != trace.IO(res.IO) {
				t.Errorf("span IO sum %+v, result IO %+v", sum, res.IO)
			}
		}
		name := fakes[bad].name
		switch f := c.fault; {
		case f == healthy && c.stop == 2:
			r.checkStopped(t, c, cres, err, context.Canceled, -1)
			w := c.workers
			if w == 0 {
				w = runtime.GOMAXPROCS(0)
			}
			if res != nil && res.IO.TuplesRead > cancelAt+int64(c.k*w*r.m.Table().BlockSize()) {
				t.Errorf("read %d tuples, stop point %d + one block per worker and shard", res.IO.TuplesRead, cancelAt)
			}
		case f == healthy:
			r.checkExact(t, c, cres, err, fakes)
		case f.refused() || f == deadAtConnect && c.k == 1:
			if cres != nil || err == nil || !strings.Contains(err.Error(), `"`+name+`"`) && !strings.Contains(err.Error(), "unreachable") {
				t.Errorf("result %+v, err %v; want an error naming shard %s", cres, err, name)
			}
			if f.refused() && fakes[bad].segments.Load() != 0 {
				t.Error("a refused shard set was sent a segment")
			}
		case f.lost():
			r.checkLost(t, cres, err, bad, name)
		default:
			cause := context.Canceled
			if f == blocksToDeadline {
				cause = context.DeadlineExceeded
			}
			r.checkStopped(t, c, cres, err, cause, bad)
		}
	})
}

// checkExact holds a healthy cell to the single-node Scan cell.
func (r *clusterRow) checkExact(t *testing.T, c clusterCell, cres *cluster.Result, err error, fakes []*faultShard) {
	t.Helper()
	want, wres, werr := r.m.Scan(t, c.skip, c.stop)
	if fmt.Sprint(err) != fmt.Sprint(werr) || (cres == nil) != (wres == nil) {
		t.Fatalf("result %+v, err %v; single-node Scan %+v, %v", cres, err, wres, werr)
	}
	if cres == nil {
		return
	}
	if cres.Degraded || len(cres.Missing) != 0 {
		t.Errorf("healthy shards reported degraded, missing %v", cres.Missing)
	}
	if got := engine.CanonicalAnswer(t, cres.Result); got != want {
		t.Errorf("answer diverges from the single-node Scan:\n%s\nvs\n%s", got, want)
	}
	if cres.Result.IO != wres.IO {
		t.Errorf("IOStats %+v, single-node Scan %+v", cres.Result.IO, wres.IO)
	}
	for i, s := range fakes {
		if n, st := s.segments.Load(), cres.Shards[i].Segments; n != st || n > 1 || c.stop == 0 && n != 1 {
			t.Errorf("shard %s answered %d segments, its status says %d", s.name, n, st)
		}
	}
}

// checkLost holds a cell whose faulty shard was lost to an honest
// partial over the live parts.
func (r *clusterRow) checkLost(t *testing.T, cres *cluster.Result, err error, bad int, name string) {
	t.Helper()
	live := r.liveCounts(bad)
	if tg := r.m.Target(); tg.Candidate != "" {
		id := slices.Index(r.plans[true][0].ShardMeta().Labels, tg.Candidate)
		if live[id] == nil {
			if cres != nil || err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("target unread: result %+v, err %v; want an error naming %s", cres, err, name)
			}
			return
		}
	}
	if err != nil || cres == nil {
		t.Fatalf("lost shard: err %v; want a degraded answer", err)
	}
	if res := cres.Result; !cres.Degraded || !slices.Equal(cres.Missing, []string{name}) || !res.Partial || res.Exact {
		t.Errorf("degraded %v, missing %v, partial %v, exact %v; want a partial missing %s",
			cres.Degraded, cres.Missing, res.Partial, res.Exact, name)
	}
	for i, s := range cres.Shards {
		if s.Healthy == (i == bad) || s.Healthy != (s.Error == "") {
			t.Errorf("shard %s healthy %v, error %q", s.Name, s.Healthy, s.Error)
		}
	}
	honest(t, cres.Result, live, true)
}

// checkStopped holds a run its context ended to the typed stop over
// cause, with no shard named; shard ender, which ended it (-1 for none),
// contributes nothing.
func (r *clusterRow) checkStopped(t *testing.T, c clusterCell, cres *cluster.Result, err error, cause error, ender int) {
	t.Helper()
	if !errors.Is(err, engine.ErrCanceled) || !errors.Is(err, cause) {
		t.Errorf("err %v, want ErrCanceled over %v", err, cause)
	}
	if cres == nil {
		return // a candidate target the run had not reached
	}
	if res := cres.Result; cres.Degraded || len(cres.Missing) != 0 || !res.Partial || res.Exact {
		t.Errorf("degraded %v, missing %v, partial %v, exact %v; want a partial naming no shard",
			cres.Degraded, cres.Missing, res.Partial, res.Exact)
	}
	for _, s := range cres.Shards {
		if !s.Healthy || s.Error != "" {
			t.Errorf("shard %s marked lost (%q) by the run's own end", s.Name, s.Error)
		}
	}
	honest(t, cres.Result, r.liveCounts(ender), c.fault == blocksToDeadline)
}

// liveCounts sums each candidate's exact counts over every part but
// part lost (nil for a candidate none of them holds).
func (r *clusterRow) liveCounts(lost int) [][]float64 {
	sum := make([][]float64, len(r.ref[0]))
	for i, hists := range r.ref {
		for id, h := range hists {
			if i == lost || h == nil || h.Total() == 0 {
				continue
			}
			if sum[id] == nil {
				sum[id] = make([]float64, h.Groups())
			}
			for g, n := range h.Counts() {
				sum[id][g] += n
			}
		}
	}
	return sum
}

// honest fails a match whose counts exceed the live parts' (full:
// differ from them): a total the shards never read.
func honest(t *testing.T, res *engine.Result, live [][]float64, full bool) {
	t.Helper()
	for _, mt := range res.TopK {
		got, want := mt.Histogram.Counts(), live[mt.ID]
		ok := want != nil && len(got) == len(want)
		for g := 0; ok && g < len(got); g++ {
			ok = got[g] == want[g] || !full && got[g] < want[g]
		}
		if !ok {
			t.Errorf("candidate %s counts %v, live parts %v", mt.Label, got, want)
		}
	}
}
