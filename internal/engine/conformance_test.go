package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/histogram"
	"fastmatch/internal/ingest"
	"fastmatch/internal/obs/trace"
)

// The conformance matrix: FastMatch's block skipping, HistSim's stopping
// rule, the storage backend, the worker count, a run's observers and a
// coordinator's shard layout change how much is read, never the answer.
// One test holds every executor to that over one backend table, one
// option builder and one shape corpus. Axes:
//
//	backend      inmem, mmap, ingest, ingest-compacted (matrixBackends);
//	             cluster-1 and cluster-3 (ClusterRows, whose own table
//	             gives their rules and faults)
//	executor     Scan, ParallelScan, ScanMatch, SyncMatch, FastMatch, Auto
//	workers      1, 2, 4, and 0 (the default: GOMAXPROCS)
//	skip         the plan's skip masks, or withoutSkipMasks
//	stop         none, a row budget, a cancel after a row count
//	observers    none, or OnProgress and a Trace
//	start        a seeded start block, or one three blocks before the end
//	lookahead    one window over every block, or windows of 3 or 17
//	accumulator  the kernels; completed exact runs also the per-row
//	             reference loop (refHists), every match cell for cell
//
// Per shape, backend and executor the matrix runs a seeded pairwise
// cover of workers × skip × stop × observers × start × lookahead: every
// pair of values of every two of those axes meets in some cell. Each
// cell's checks are a subtest, table/shape/backend/executor/workers=…/
// skip=…/stop=…/observers=…/start=…/lookahead=…, so a failure names its
// cell and -run selects one (its parents still run, unchecked). Every
// cell chains through its parent to a root cell on inmem at workers 1
// without observers. A
// cell's answer is canonicalAnswer: the result JSON without Duration and
// IOStats, every match's histogram counts and the quality report. Cells
// compare bytes where the contract promises bytes, bounds where it
// promises bounds:
//
//	cell                      held to                 by
//	any backend or workers    inmem, workers 1, same  bytes: answer, IOStats
//	                          skip, stop, observers   and progress frames
//	inmem, workers 1,         the same unobserved     bytes: answer, IOStats;
//	observed                                          span IO sums to IOStats
//	observed sampling cell    its own frames          each phase span: the
//	                                                  frame's fields, the IO
//	                                                  since the frame before
//	inmem, workers 1, skip    the same with skip off  bytes: answer (budget
//	on, no stop or budget                             rows count pruned blocks)
//	inmem, workers 1, skip    nothing: a root         (the cancel trigger
//	on, cancel                                        counts rows read, so
//	                                                  pruning moves the stop)
//	ParallelScan, workers     its own run only        timing-dependent stop:
//	> 1, budget or cancel                             the bounds below
//	every stopped cell        its own run             typed error, Partial,
//	                                                  TuplesRead ≤ stop point
//	                                                  + one block per worker,
//	                                                  ≥ budget with skip off;
//	                                                  ranks observed candidates
//	every completed cell      its own run             σ prunes some
//	                                                  candidate or none;
//	                                                  exact: counts equal
//	                                                  refHists, distances
//	                                                  the metric's over them;
//	                                                  sampling: GuaranteeMet,
//	                                                  and on the table's
//	                                                  guarantee shapes no
//	                                                  exhaustion
//	skip off                  its own run             prunes no block
//
// ParallelScan takes Scan's cell as parent, since the exact answer does
// not depend on the executor. An exact cell's parent starts at the
// seeded block, and only FastMatch's parents keep the lookahead: an exact
// pass reads every block in order, and only FastMatch marks ahead. Auto
// takes the cell of the executor it resolves to on the shape
// (ResolveExecutor), and is exact or sampling as that executor is. An
// exact cell takes a candidate target from its own pass; a sampling cell
// resolves it with a pass of its own first, so its stop points are
// counted past that pass's rows.
// On the skip table a completed skip-on run must prune blocks and read
// fewer tuples. On the guarantee table every completed sampling run, and
// on the accumulator table every one without bins, must stop on HistSim's
// guarantee after a stage-2 round, so stage-2 sampling and lookahead
// marking meet every backend and worker count.
//
// Engines are shared by every cell of a table, and each shape's
// completed root cells run before any other cell, so a completed cell
// that follows canceled runs on the same engine is held to answers from
// an engine that had seen none.

// matrixBackends serves one table's rows from every storage backend.
// Adding a backend is one line.
var matrixBackends = []struct {
	name string
	open func(testing.TB, *colstore.Table) colstore.Reader
}{
	{"inmem", func(_ testing.TB, tbl *colstore.Table) colstore.Reader { return tbl }},
	{"mmap", func(t testing.TB, tbl *colstore.Table) colstore.Reader { return mmapTwin(t, tbl) }},
	{"ingest", func(t testing.TB, tbl *colstore.Table) colstore.Reader { return ingestTwin(t, tbl) }},
	{"ingest-compacted", func(t testing.TB, tbl *colstore.Table) colstore.Reader { return compactedIngestTwin(t, tbl) }},
}

// backendEngines returns an engine over tbl's rows per backend, by name.
func backendEngines(t testing.TB, tbl *colstore.Table) map[string]*Engine {
	t.Helper()
	engines := make(map[string]*Engine, len(matrixBackends))
	for _, b := range matrixBackends {
		engines[b.name] = New(b.open(t, tbl))
	}
	return engines
}

// runOptions is the tests' one option builder: the test parameters, a
// seeded random start block, and one lookahead window spanning all nb
// blocks (the configuration of the paper's Algorithm 3 measurements).
func runOptions(exec Executor, nb, workers int) Options {
	return Options{
		Params:     testParams(),
		Executor:   exec,
		Lookahead:  nb + 1,
		StartBlock: -1,
		Seed:       11,
		Workers:    workers,
	}
}

func allExecutors() []Executor {
	return []Executor{Scan, ParallelScan, ScanMatch, SyncMatch, FastMatch}
}

func samplingExecutors() []Executor {
	return []Executor{ScanMatch, SyncMatch, FastMatch}
}

// canonicalAnswer is a matrix cell's answer: the result JSON without
// Duration and IOStats (which pruning changes by contract), every
// match's histogram counts, and the quality report.
func canonicalAnswer(t testing.TB, res *Result) string {
	t.Helper()
	c := *res
	c.Duration, c.IO = 0, IOStats{}
	counts := make([][]float64, len(res.TopK))
	for i, m := range res.TopK {
		if m.Histogram != nil {
			counts[i] = m.Histogram.Counts()
		}
	}
	b, err := json.Marshal(struct {
		Result  *Result
		Counts  [][]float64
		Quality *QualityReport
	}{&c, counts, res.Quality})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// matrixTable is one table of the corpus, with the stop points its
// cells use: rows past the shape's target resolution.
type matrixTable struct {
	name     string
	build    func(testing.TB) *colstore.Table
	shapes   func(t testing.TB, tbl *colstore.Table, eng *Engine) map[string]shape
	params   func(*core.Params) // nil keeps testParams
	budget   int64
	cancelAt int64
	// prunes: every shape's skip-on completed runs prune blocks and
	// read fewer tuples.
	prunes bool
	// guarantee picks the shapes whose completed sampling runs must
	// stop on HistSim's guarantee after at least one stage-2 round;
	// nil picks none.
	guarantee func(Query) bool
}

// shape is one query and target of the corpus.
type shape struct {
	q      Query
	target Target
	params func(*core.Params) // applied after the table's; nil for none
}

// uniform pairs every query with the uniform target.
func uniform(qs map[string]Query) map[string]shape {
	out := make(map[string]shape, len(qs))
	for name, q := range qs {
		out[name] = shape{q: q, target: Target{Uniform: true}}
	}
	return out
}

// matrixTables is the shape corpus: column, known and predicate
// candidates × single, multi and binned X, a candidate and a counts
// target, a σ that prunes every candidate, a σ at which Auto samples,
// and sampling runs that stop on the guarantee.
var matrixTables = []matrixTable{
	{
		name:  "skip",
		build: skipTestTable,
		shapes: func(t testing.TB, _ *colstore.Table, eng *Engine) map[string]shape {
			return uniform(skipQueries(t, eng))
		},
		// With its skip masks, pred-and-binned reads 1,024 rows in all.
		budget: 3000, cancelAt: 512, prunes: true,
	},
	{
		name:  "accumulator",
		build: func(t testing.TB) *colstore.Table { return inArrivalOrder(t, accumulatorTable(t)) },
		shapes: func(t testing.TB, tbl *colstore.Table, eng *Engine) map[string]shape {
			s := uniform(accumulatorShapes(t, tbl, eng))
			z, err := tbl.Column("Z")
			if err != nil {
				t.Fatal(err)
			}
			s["candidate-target"] = shape{q: baseQuery(), target: Target{Candidate: z.Dict.Value(0)}}
			// An explicit target: another candidate's counts, so sampling
			// runs separate as they do against a candidate target.
			p, err := eng.Prepare(baseQuery())
			if err != nil {
				t.Fatal(err)
			}
			h, err := p.ResolveTarget(Target{Candidate: z.Dict.Value(1)}, 1)
			if err != nil {
				t.Fatal(err)
			}
			s["counts-target"] = shape{q: baseQuery(), target: Target{Counts: h.Counts()}}
			// At σ = 0.9 Auto samples (need·4 < σN), so its cells take
			// FastMatch's as parent and resolve the target first; no
			// candidate reaches σ, so none is pruned.
			s["auto-samples"] = shape{q: baseQuery(), target: Target{Candidate: z.Dict.Value(0)},
				params: func(p *core.Params) { p.Sigma = 0.9 }}
			return s
		},
		// A stage-1 sample a quarter of the table's rows leaves room for
		// stage-2 rounds, so multi-X, known-candidate, predicate and
		// candidate-target runs stop on the guarantee. Half the binned
		// shapes' rows fall outside every bin; those runs exhaust the
		// table, and the guarantee table covers binned stage-2 runs.
		params:    func(p *core.Params) { p.Stage1Samples, p.Epsilon = 2048, 0.3 },
		guarantee: func(q Query) bool { return q.XBins == nil },
		budget:    3000, cancelAt: 1024,
	},
	{
		name:  "guarantee",
		build: func(t testing.TB) *colstore.Table { return inArrivalOrder(t, guaranteeTable(t)) },
		shapes: func(t testing.TB, _ *colstore.Table, eng *Engine) map[string]shape {
			bins, err := colstore.NewUniformBinner(0, 100, 4)
			if err != nil {
				t.Fatal(err)
			}
			s := uniform(map[string]Query{
				"column":     baseQuery(),
				"predicates": predQuery(t, eng, []string{"X"}, "", nil, "z1", "z2", "z4", "z6", "z7"),
				"binned":     {Z: "Z", XMeasure: "M", XBins: bins},
			})
			// No candidate reaches σ = 0.5 (each holds about 1/8 of the
			// rows), so HistSim keeps them all and the exact pass must
			// too. Auto still resolves to Scan: need·4 ≥ σN.
			s["sigma-prunes-all"] = shape{q: baseQuery(), target: Target{Uniform: true},
				params: func(p *core.Params) { p.Sigma = 0.5 }}
			return s
		},
		params:    func(p *core.Params) { p.Stage1Samples, p.Epsilon = 2048, 0.2 },
		guarantee: func(Query) bool { return true },
		budget:    2500, cancelAt: 2500,
	},
}

// guaranteeTable holds 16,384 shuffled rows over 8 Z values. Candidate
// z<i> puts i/8 of its rows in group x0 and bin [0, 25), the rest
// uniformly, so consecutive candidates sit about 0.2 apart (L1) from the
// uniform target and sampling runs separate them long before the data
// runs out.
func guaranteeTable(t testing.TB) *colstore.Table {
	t.Helper()
	const rows, card = 16_384, 8
	zDict, xDict := colstore.NewDictionary(), colstore.NewDictionary()
	for v := 0; v < card; v++ {
		zDict.Intern(fmt.Sprintf("z%d", v))
		xDict.Intern(fmt.Sprintf("x%d", v))
	}
	rng := rand.New(rand.NewSource(45))
	zc, xc, mv := make([]uint32, rows), make([]uint32, rows), make([]float64, rows)
	for row := range zc {
		z := rng.Intn(card)
		zc[row] = uint32(z)
		if rng.Intn(card) < z {
			mv[row] = 25 * rng.Float64()
		} else {
			xc[row], mv[row] = uint32(rng.Intn(card)), 100*rng.Float64()
		}
	}
	tbl, err := colstore.NewTable(64, rows,
		[]*colstore.Column{colstore.NewColumn("Z", zDict, zc), colstore.NewColumn("X", xDict, xc)},
		[]*colstore.MeasureColumn{colstore.NewMeasureColumn("M", mv)})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// inArrivalOrder rebuilds tbl with each dictionary's codes in the order
// the values first appear: the order an ingest table interns them in, so
// candidate IDs and groups are numbered alike on every backend.
func inArrivalOrder(t testing.TB, tbl *colstore.Table) *colstore.Table {
	t.Helper()
	n := tbl.NumRows()
	var cols []*colstore.Column
	for _, name := range tbl.Columns() {
		c, err := tbl.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		dict, codes := colstore.NewDictionary(), make([]uint32, n)
		for row := range codes {
			codes[row] = dict.Intern(c.Dict.Value(c.Code(row)))
		}
		cols = append(cols, colstore.NewColumn(name, dict, codes))
	}
	var meas []*colstore.MeasureColumn
	for _, name := range tbl.MeasureNames() {
		m, err := tbl.MeasureByName(name)
		if err != nil {
			t.Fatal(err)
		}
		meas = append(meas, colstore.NewMeasureColumn(name, slices.Clone(m.Values(0, n))))
	}
	out, err := colstore.NewTable(tbl.BlockSize(), n, cols, meas)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

type stopKind int

const (
	stopNone stopKind = iota
	stopBudget
	stopCancel
)

var (
	matrixExecutors = append(allExecutors(), Auto)
	matrixWorkers   = []int{1, 2, 4, 0}
	stopNames       = []string{"none", "budget", "cancel"}
	// A sampling walk starts at a seeded block or three blocks before the
	// end, so it wraps early; FastMatch marks one window over every block
	// or short windows it retiles, split at the wrap.
	startNames     = []string{"seeded", "late"}
	lookaheadNames = []string{"all", "3", "17"}
)

// cell is one point of the matrix.
type cell struct {
	backend   int
	exec      Executor
	workers   int
	skip      bool
	stop      stopKind
	observe   bool
	start     int // index into startNames
	lookahead int // index into lookaheadNames
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%s/workers=%d/skip=%v/stop=%s/observers=%v/start=%s/lookahead=%s",
		matrixBackends[c.backend].name, c.exec, c.workers, c.skip, stopNames[c.stop], c.observe,
		startNames[c.start], lookaheadNames[c.lookahead])
}

// options sets c's start block and lookahead window over nb blocks.
func (c cell) options(o *Options, nb int) {
	if c.start == 1 {
		o.StartBlock = max(nb-3, 0)
	}
	if c.lookahead > 0 {
		o.Lookahead, _ = strconv.Atoi(lookaheadNames[c.lookahead])
	}
}

// scanWorkers is how many goroutines the cell's run reads with.
func (c cell) scanWorkers() int {
	switch {
	case c.exec != ParallelScan:
		return 1
	case c.workers == 0:
		return runtime.GOMAXPROCS(0)
	}
	return c.workers
}

// timingDependent: a stop lands wherever the racing workers are.
func (c cell) timingDependent() bool { return c.stop != stopNone && c.scanWorkers() > 1 }

// parent is the cell c is compared with, and whether c is a root; auto
// is the executor Auto resolves to on the shape.
func (c cell) parent(auto Executor) (cell, bool) {
	exec := c.exec
	if exec == Auto {
		exec = auto
	}
	if exec == ParallelScan {
		exec = Scan
	}
	twin := cell{exec: exec, workers: 1, skip: c.skip, stop: c.stop, observe: c.observe, start: c.start, lookahead: c.lookahead}
	if exec.exact() {
		twin.start = 0 // an exact pass walks every block in order
	}
	if exec != FastMatch {
		twin.lookahead = 0 // only FastMatch marks ahead
	}
	switch {
	case c != twin:
		return twin, true
	case c.observe:
		c.observe = false
		return c, true
	case c.skip && c.stop != stopCancel:
		c.skip = false
		return c, true
	}
	return cell{}, false
}

// outcome is what a cell's run returned.
type outcome struct {
	res    *Result
	err    error
	answer string
	frames []string        // progress frames, Elapsed zeroed
	trace  *trace.Snapshot // the run's trace, when observed
}

// shapeMatrix runs one shape's cells.
type shapeMatrix struct {
	table    *matrixTable
	tbl      *colstore.Table // the inmem backend's table
	shape    []shape         // per backend
	params   core.Params
	hooks    []*rowHookReader
	plans    []*Plan // per backend, with skip masks
	refHists [][]float64
	target   *histogram.Histogram // the shape's target, resolved on inmem
	auto     Executor             // what Auto resolves to on the shape
	// targetRows is how many rows a separate target resolution reads
	// (see resolveRows).
	targetRows int64
	done       map[cell]outcome
}

// resolved is the executor c's run answers with.
func (m *shapeMatrix) resolved(c cell) Executor {
	if c.exec == Auto {
		return m.auto
	}
	return c.exec
}

// resolveRows is how many rows c's target resolution reads and charges
// to the run's guard: stop points are counted past it. An exact pass
// takes its target from its own counts, so its resolution reads none.
func (m *shapeMatrix) resolveRows(c cell) int64 {
	if m.resolved(c).exact() {
		return 0
	}
	return m.targetRows
}

func TestConformanceMatrix(t *testing.T) {
	for i := range matrixTables {
		mt := &matrixTables[i]
		t.Run(mt.name, func(t *testing.T) {
			tbl := mt.build(t)
			hooks := make([]*rowHookReader, len(matrixBackends))
			engines := make([]*Engine, len(matrixBackends))
			shapes := make([]map[string]shape, len(matrixBackends))
			for b, backend := range matrixBackends {
				hooks[b] = &rowHookReader{Reader: backend.open(t, tbl)}
				engines[b] = New(hooks[b])
				shapes[b] = mt.shapes(t, tbl, engines[b])
			}
			names := make([]string, 0, len(shapes[0]))
			for name := range shapes[0] {
				names = append(names, name)
			}
			sort.Strings(names)
			for si, name := range names {
				t.Run(name, func(t *testing.T) {
					m := &shapeMatrix{table: mt, tbl: tbl, params: testParams(), hooks: hooks, done: map[cell]outcome{}}
					for _, set := range []func(*core.Params){mt.params, shapes[0][name].params} {
						if set != nil {
							set(&m.params)
						}
					}
					for b, eng := range engines {
						sh := shapes[b][name]
						m.shape = append(m.shape, sh)
						p, err := eng.Prepare(sh.q)
						if err != nil {
							t.Fatal(err)
						}
						m.plans = append(m.plans, p)
					}
					m.prepare(t)
					m.run(t, int64(si))
					ClusterRows(t, m, int64(si))
				})
			}
		})
	}
}

// prepare computes the exact reference histograms, the target
// resolution's row count on the inmem backend, and what Auto resolves
// to.
func (m *shapeMatrix) prepare(t *testing.T) {
	p := m.plans[0]
	for _, h := range refHists(p) {
		if h == nil {
			m.refHists = append(m.refHists, nil)
			continue
		}
		m.refHists = append(m.refHists, h.Counts())
	}
	var rows atomic.Int64
	m.hooks[0].set(func(lo, hi int) { rows.Add(int64(hi - lo)) })
	var err error
	m.target, err = p.ResolveTarget(m.shape[0].target, 1)
	m.hooks[0].set(nil)
	if err != nil {
		t.Fatal(err)
	}
	m.targetRows = rows.Load()
	m.auto, _ = ResolveExecutor(Options{Executor: Auto, Params: m.params}, p.rows, p.Groups(), false)
}

// run checks the completed root cells first, then the pairwise
// cover of every backend × executor, canceled cells before budget cells
// before completed ones.
func (m *shapeMatrix) run(t *testing.T, seed int64) {
	m.outcome(t, cell{exec: Scan, workers: 1})
	for _, exec := range samplingExecutors() {
		for start := range startNames {
			for lookahead := range lookaheadNames {
				c := cell{exec: exec, workers: 1, start: start, lookahead: lookahead}
				if exec != FastMatch {
					c.lookahead = 0
				}
				m.outcome(t, c)
			}
		}
	}
	var cells []cell
	for b := range matrixBackends {
		for e, exec := range matrixExecutors {
			for _, row := range pairwiseCover(seed*1000+int64(b*len(matrixExecutors)+e),
				len(matrixWorkers), 2, 3, 2, len(startNames), len(lookaheadNames)) {
				cells = append(cells, cell{backend: b, exec: exec, workers: matrixWorkers[row[0]],
					skip: row[1] == 1, stop: stopKind(row[2]), observe: row[3] == 1, start: row[4], lookahead: row[5]})
			}
		}
	}
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].stop > cells[j].stop })
	for _, c := range cells {
		m.outcome(t, c)
	}
}

// outcome runs c once, after its parent, remembers it, and checks it on
// its own and against its parent in a subtest named after the cell. The
// run happens outside the subtest, so a -run pattern that selects one
// cell still has its parent to compare with.
func (m *shapeMatrix) outcome(t *testing.T, c cell) outcome {
	if o, ok := m.done[c]; ok {
		return o
	}
	var parent outcome
	pc, hasParent := c.parent(m.auto)
	if hasParent {
		parent = m.outcome(t, pc)
	}
	o := m.exec(t, c)
	m.done[c] = o
	t.Run(c.String(), func(t *testing.T) {
		if o.res == nil {
			t.Fatalf("no result: %v", o.err)
		}
		m.checkAlone(t, c, o)
		if hasParent && parent.res != nil {
			m.checkAgainst(t, c, o, pc, parent)
		}
	})
	return o
}

// exec runs one cell.
func (m *shapeMatrix) exec(t *testing.T, c cell) outcome {
	p := m.plans[c.backend]
	if !c.skip {
		p = withoutSkipMasks(p)
	}
	opts := runOptions(c.exec, p.engine.src.NumBlocks(), c.workers)
	opts.Params = m.params
	c.options(&opts, p.engine.src.NumBlocks())
	var o outcome
	var tr *trace.Trace
	if c.observe {
		opts.OnProgress = func(p Progress) {
			p.Elapsed = 0
			b, err := json.Marshal(&p)
			if err != nil {
				t.Error(err) // a scan calls this on its worker goroutine
			}
			o.frames = append(o.frames, string(b))
		}
		tr = trace.New("matrix")
		opts.Trace = tr
	}
	ctx := context.Background()
	switch c.stop {
	case stopBudget:
		opts.RowBudget = m.resolveRows(c) + m.table.budget
	case stopCancel:
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		m.hooks[c.backend].set(cancelAfterRows(cancel, m.resolveRows(c)+m.table.cancelAt))
		defer m.hooks[c.backend].set(nil)
	}
	o.res, o.err = p.RunContext(ctx, m.shape[c.backend].target, opts)
	if o.res == nil {
		return o
	}
	o.answer = canonicalAnswer(t, o.res)
	if tr != nil {
		tr.End()
		sn := tr.Snapshot()
		o.trace = &sn
	}
	return o
}

// checkAlone holds one cell to the promises that need no other cell.
func (m *shapeMatrix) checkAlone(t *testing.T, c cell, o outcome) {
	t.Helper()
	res, q, bs := o.res, m.shape[c.backend].q, int64(m.plans[c.backend].blockSize)
	fail := t.Errorf
	exact := m.resolved(c).exact()
	if o.trace != nil {
		if sum := o.trace.SumIO(); sum != trace.IO(res.IO) {
			fail("span IO sum %+v, result IO %+v", sum, res.IO)
		}
		if !exact {
			checkStory(t, o.frames, o.trace.Find("run"))
		}
	}
	if exact != (res.Quality == nil) {
		fail("quality report %+v", res.Quality)
		return
	}
	if !c.skip && res.IO.BlocksPruned != 0 {
		fail("pruned %d blocks with the skip masks off", res.IO.BlocksPruned)
	}
	if c.observe && o.frames == nil && c.stop == stopNone {
		switch {
		case exact && c.scanWorkers() == 1 && res.IO.BlocksRead+res.IO.BlocksPruned >= scanProgressInterval:
			fail("no progress frame over %d blocks", res.IO.BlocksRead+res.IO.BlocksPruned)
		case !exact:
			fail("no progress frame")
		}
	}
	if len(o.frames) > 0 {
		want := `{"phase":"stage1"`
		if exact {
			want = `{"phase":"scan"`
		}
		if !strings.HasPrefix(o.frames[0], want) {
			fail("first progress frame %s, want phase %s", o.frames[0], want)
		}
		if c.scanWorkers() > 1 {
			fail("%d progress frames from a racing scan", len(o.frames))
		}
	}
	if c.stop == stopNone {
		if o.err != nil || res.Partial || res.Exact != (exact || res.Quality.Termination == "exact") {
			fail("completed run: err %v, partial %v, exact %v", o.err, res.Partial, res.Exact)
			return
		}
		if n := len(res.Pruned); n > 0 && n == len(m.refHists) {
			fail("σ pruned all %d candidates", n)
		}
		if exact {
			for _, mt := range res.TopK {
				want := m.refHists[mt.ID]
				if !slices.Equal(mt.Histogram.Counts(), want) {
					fail("candidate %s counts %v, reference loop %v", mt.Label, mt.Histogram.Counts(), want)
					continue
				}
				if d := m.params.Metric.Distance(histogram.FromCounts(want), m.target); mt.Distance != d {
					fail("candidate %s at distance %g, reference %g", mt.Label, mt.Distance, d)
				}
			}
			return
		}
		qr := res.Quality
		if qr.Truncated || !qr.GuaranteeMet || (m.table.guarantee != nil && m.table.guarantee(q) && (qr.Termination != "guarantee" || qr.Rounds == 0)) {
			fail("completed sampling run reported %+v", qr)
		}
		return
	}
	stopAt, typed := m.table.budget, ErrBudgetExhausted
	if c.stop == stopCancel {
		stopAt, typed = m.table.cancelAt, ErrCanceled
	}
	if !errors.Is(o.err, typed) || !errors.Is(o.err, core.ErrInterrupted) || (c.stop == stopCancel && !errors.Is(o.err, context.Canceled)) {
		fail("stopped run returned %v, want %v", o.err, typed)
	}
	if !res.Partial || res.Exact || (res.Quality != nil && res.Quality.Termination != "truncated") {
		fail("stopped run: partial %v, exact %v, quality %+v", res.Partial, res.Exact, res.Quality)
	}
	if limit := stopAt + int64(c.scanWorkers())*bs; res.IO.TuplesRead > limit {
		fail("read %d tuples, stop point %d + one block per worker", res.IO.TuplesRead, stopAt)
	}
	if c.stop == stopBudget && !c.skip && res.IO.TuplesRead < stopAt {
		fail("stopped after %d tuples, before the %d-row budget", res.IO.TuplesRead, stopAt)
	}
	// Z-column candidates over every group cover every block, so any
	// stop has seen some; a predicate or a bin range may not have been
	// reached yet.
	if len(res.TopK) == 0 && len(q.CandidatePreds) == 0 && q.XBins == nil {
		fail("partial result ranks no candidate")
	}
	for _, mt := range res.TopK {
		if mt.Histogram == nil || mt.Histogram.Total() == 0 {
			fail("partial result ranks never-observed candidate %s", mt.Label)
		}
	}
}

// checkStory holds a sampling run's phase spans to its progress frames:
// one span per frame, in order, named for the frame's phase, with the
// frame's fields as attrs and the IO between the frame before it and it.
// A "tail" span may follow, carrying IO read after the last frame.
func checkStory(t *testing.T, frames []string, run *trace.SpanSnapshot) {
	t.Helper()
	spans := run.Children
	if n := len(spans); n > 0 && spans[n-1].Name == "tail" {
		spans = spans[:n-1]
	}
	if len(spans) != len(frames) {
		t.Errorf("%d phase spans for %d progress frames", len(spans), len(frames))
		return
	}
	var prev IOStats
	for i, raw := range frames {
		var f Progress
		if err := json.Unmarshal([]byte(raw), &f); err != nil {
			t.Fatal(err)
		}
		name := f.Phase
		if f.Phase == "stage2" {
			name = fmt.Sprintf("stage2.round%d", f.Round)
		}
		attrs := map[string]any{"drawn": f.SamplesDrawn, "active_candidates": f.ActiveCandidates,
			"gap": f.Quality.Gap, "slack": f.Quality.Slack, "churn": f.Quality.Churn}
		sp, io := spans[i], trace.IO(ioDelta(f.IO, prev))
		if sp.Name != name || !reflect.DeepEqual(sp.Attrs, attrs) || sp.IO == nil || *sp.IO != io {
			t.Errorf("span %d %s %v IO %+v tells another story than frame %s (IO since the last frame %+v)",
				i, sp.Name, sp.Attrs, sp.IO, raw, io)
		}
		prev = f.IO
	}
}

// checkAgainst holds a cell to its parent by the matrix's rules.
func (m *shapeMatrix) checkAgainst(t *testing.T, c cell, o outcome, pc cell, parent outcome) {
	t.Helper()
	if c.timingDependent() {
		return
	}
	if o.answer != parent.answer {
		t.Errorf("answer diverges from %s:\n%s\nvs\n%s", pc, o.answer, parent.answer)
		return
	}
	on, off := o.res.IO, parent.res.IO
	if c.skip == pc.skip {
		if on != off {
			t.Errorf("IOStats %+v, %s %+v", on, pc, off)
		}
		if c.observe == pc.observe && c.scanWorkers() == 1 && !slices.Equal(o.frames, parent.frames) {
			t.Errorf("progress frames diverge from %s:\n%v\nvs\n%v", pc, o.frames, parent.frames)
		}
		return
	}
	if c.stop == stopNone && m.table.prunes && (on.BlocksPruned == 0 || on.TuplesRead >= off.TuplesRead) {
		t.Errorf("pruned %d blocks and read %d tuples, %d without skip masks", on.BlocksPruned, on.TuplesRead, off.TuplesRead)
	}
}

// pairwiseCover returns a seeded subset of the product of axes, axis i
// taking values 0..axes[i]-1, in which every pair of values of every two
// axes meets in some row: greedily, the row covering most new pairs
// next, ties to the seeded shuffle's order.
func pairwiseCover(seed int64, axes ...int) [][]int {
	rows := [][]int{{}}
	for _, n := range axes {
		var next [][]int
		for _, r := range rows {
			for v := 0; v < n; v++ {
				next = append(next, append(slices.Clone(r), v))
			}
		}
		rows = next
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	// Each row's pairs, numbered: axes a < b taking values va and vb.
	n, width := len(axes), slices.Max(axes)
	pairs := make([][]int, len(rows))
	for i, r := range rows {
		for a := range r {
			for b := a + 1; b < n; b++ {
				pairs[i] = append(pairs[i], ((a*n+b)*width+r[a])*width+r[b])
			}
		}
	}
	covered := make([]bool, n*n*width*width)
	var cover [][]int
	for {
		best, bestN := 0, 0
		for i, ps := range pairs {
			fresh := 0
			for _, p := range ps {
				if !covered[p] {
					fresh++
				}
			}
			if fresh > bestN {
				best, bestN = i, fresh
			}
		}
		if bestN == 0 {
			return cover
		}
		for _, p := range pairs[best] {
			covered[p] = true
		}
		cover = append(cover, rows[best])
	}
}

// withoutSkipMasks returns a copy of p that prunes nothing.
func withoutSkipMasks(p *Plan) *Plan {
	c := *p
	c.skipAll, c.skipGrp = nil, nil
	return &c
}

// mmapTwin writes tbl to a snapshot and opens it with the mmap backend.
func mmapTwin(t testing.TB, tbl *colstore.Table) *colstore.MmapTable {
	t.Helper()
	path := t.TempDir() + "/twin.fms"
	if err := colstore.WriteSnapshotFile(tbl, path); err != nil {
		t.Fatal(err)
	}
	mt, err := colstore.OpenMmapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mt.Close() })
	return mt
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

// compactedIngestTwin is ingestTwin with CompactNow run before the view
// is taken, so block skipping reads file-backed segment statistics. Every
// sealed segment is compacted; rows past the last full 4096-row seal
// stay in the live tail, so a table shorter than one seal has no segment
// file.
func compactedIngestTwin(t testing.TB, tbl *colstore.Table) *ingest.TableView {
	t.Helper()
	const sealRows = 4096
	wt := ingestTableFrom(t, tbl, sealRows)
	if err := wt.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if st := wt.Stats(); (st.SegmentFiles == 0) != (tbl.NumRows() < sealRows) || st.PersistedRows != tbl.NumRows()-tbl.NumRows()%sealRows {
		t.Fatalf("compaction left %d segment files over %d of %d rows", st.SegmentFiles, st.PersistedRows, tbl.NumRows())
	}
	v, err := wt.View()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Release)
	return v
}

// ingestTableFrom appends every row of tbl to a fresh WritableTable, in
// batches of 1,000 rows.
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
	var cols []*colstore.Column
	var meas []*colstore.MeasureColumn
	for _, name := range tbl.Columns() {
		c, err := tbl.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, c)
	}
	for _, name := range tbl.MeasureNames() {
		m, err := tbl.Measure(name)
		if err != nil {
			t.Fatal(err)
		}
		meas = append(meas, m)
	}
	for lo := 0; lo < tbl.NumRows(); lo += 1000 {
		batch := make([]ingest.Row, min(1000, tbl.NumRows()-lo))
		for i := range batch {
			batch[i].Values = make(map[string]string, len(cols))
			for _, c := range cols {
				batch[i].Values[c.Name] = c.Dict.Value(c.Code(lo + i))
			}
			for _, m := range meas {
				if batch[i].Measures == nil {
					batch[i].Measures = make(map[string]float64, len(meas))
				}
				batch[i].Measures[m.Name] = m.Value(lo + i)
			}
		}
		if _, err := wt.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	return wt
}

// rowHookReader wraps a Reader and reports each block's row span
// [lo, hi) to its hook as BlockSpan serves the block. BlockSpan is the
// one call every executor makes per block it reads, so the hook sees a
// run's reads in read order, on the goroutine that reads them. Block statistics come
// from the wrapped reader, and indexes adopt their presence words, so
// planning reports nothing.
type rowHookReader struct {
	colstore.Reader
	hook atomic.Pointer[func(lo, hi int)]
}

// set installs hook for the reads that follow; nil removes it.
func (r *rowHookReader) set(hook func(lo, hi int)) {
	if hook == nil {
		r.hook.Store(nil)
		return
	}
	r.hook.Store(&hook)
}

func (r *rowHookReader) BlockSpan(b int) (lo, hi int) {
	lo, hi = r.Reader.BlockSpan(b)
	if h := r.hook.Load(); h != nil {
		(*h)(lo, hi)
	}
	return lo, hi
}

func (r *rowHookReader) BlockStats() colstore.BlockStats { return blockStatsOf(r.Reader) }

// cancelAfterRows returns a row hook that cancels ctx once n rows have
// been served — a deterministic mid-scan trigger that works identically
// for sequential and parallel executors.
func cancelAfterRows(cancel context.CancelFunc, n int64) func(lo, hi int) {
	var seen atomic.Int64
	return func(lo, hi int) {
		if seen.Add(int64(hi-lo)) >= n {
			cancel()
		}
	}
}

// skipTestTable builds a table engineered so both prune sources fire:
// Z runs in contiguous regions (a predicate over a value covers only its
// region's blocks, so the candidate-union complement is large) and the
// measure M equals the row index (blocks have tight disjoint ranges, so
// a binner over a sub-range proves most blocks out of range).
func skipTestTable(t testing.TB) *colstore.Table {
	t.Helper()
	const rows, zCard, xCard = 8192, 8, 8
	zDict, xDict := colstore.NewDictionary(), colstore.NewDictionary()
	zc, xc, mv := make([]uint32, rows), make([]uint32, rows), make([]float64, rows)
	for row := 0; row < rows; row++ {
		zc[row] = zDict.Intern(fmt.Sprintf("z%d", row/(rows/zCard)))
		xc[row] = xDict.Intern(fmt.Sprintf("x%d", row%xCard))
		mv[row] = float64(row)
	}
	tbl, err := colstore.NewTable(64, rows,
		[]*colstore.Column{colstore.NewColumn("Z", zDict, zc), colstore.NewColumn("X", xDict, xc)},
		[]*colstore.MeasureColumn{colstore.NewMeasureColumn("M", mv)})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// predQuery compiles a predicate-candidate query against one engine (the
// values resolve to codes in that engine's backend).
func predQuery(t testing.TB, eng *Engine, x []string, xMeasure string, bins *colstore.Binner, values ...string) Query {
	t.Helper()
	col, err := eng.Source().ColumnByName("Z")
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]bitmap.Predicate, len(values))
	for i, v := range values {
		code, ok := col.Dictionary().Code(v)
		if !ok {
			t.Fatalf("no code for %q", v)
		}
		preds[i] = &bitmap.ValuePred{Column: "Z", Code: code}
	}
	return Query{CandidatePreds: preds, X: x, XMeasure: xMeasure, XBins: bins}
}

// subRangeBinner bins [1024, 3072) in 4 bins — rows outside bin to no
// group, and blocks wholly outside are provably prunable.
func subRangeBinner(t testing.TB) *colstore.Binner {
	t.Helper()
	b, err := colstore.NewBinner([]float64{1024, 1536, 2048, 2560, 3072})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// skipQueries enumerates the pruning-triggering query shapes against one
// engine. Every returned query must produce a non-empty skipAll mask on
// a stats-carrying backend.
func skipQueries(t testing.TB, eng *Engine) map[string]Query {
	t.Helper()
	return map[string]Query{
		// Candidate-side pruning: two region predicates cover 32 of 128
		// blocks, so 96 are outside the candidate union.
		"pred-cands": predQuery(t, eng, []string{"X"}, "", nil, "z0", "z3"),
		// Group-side pruning: the binner spans rows [1024, 3072), so
		// blocks entirely below or above are out of range.
		"binned-measure": {Z: "Z", XMeasure: "M", XBins: subRangeBinner(t)},
		// Both prune sources at once.
		"pred-and-binned": predQuery(t, eng, nil, "M", subRangeBinner(t), "z1", "z5"),
	}
}
