package expt

import (
	"context"
	"fmt"
	"math"
	"time"

	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/datagen"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
)

// Config sizes the experiment workspace. The paper runs on 32–36 GiB
// datasets; the defaults here scale every dataset to Rows tuples while
// preserving cardinalities and skew, and scale the stage-1 sample m
// proportionally.
type Config struct {
	// Rows per dataset (default 1_000_000).
	Rows int
	// BlockSize in tuples (default 256 ≈ the paper's 600-byte blocks of
	// 4-byte codes... the paper used 150; both work, see the block-size
	// ablation).
	BlockSize int
	// Seed drives dataset generation and run randomization.
	Seed int64
	// RunSeed is mixed into every run's scan-start seed. The default of 0
	// keeps the harness deterministic across invocations (engine.Options
	// treats seed 0 as a fixed seed, not a random one); cmd/experiments
	// sets it from the wall clock so repeated harness runs start scans at
	// independent positions.
	RunSeed int64
	// Epsilon, Delta, Sigma are the run defaults. The paper's ε = 0.04 at
	// 600M rows corresponds to a much larger sampling budget than 1M rows
	// affords, so the scaled default is 0.08; Figure 8 sweeps ε anyway.
	Epsilon, Delta, Sigma float64
	// Lookahead is the FastMatch marking window (default 1024).
	Lookahead int
	// Reps is the number of repetitions averaged per measurement
	// (default 3; the paper uses 30).
	Reps int
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Rows == 0 {
		c.Rows = 1_000_000
	}
	if c.BlockSize == 0 {
		// The paper's 600-byte column blocks hold 150 4-byte codes; 32
		// keeps σ·blockSize — the skippability of blocks when only rare
		// candidates remain active — proportionate at scaled-down dataset
		// sizes.
		c.BlockSize = 32
	}
	if c.Epsilon == 0 {
		// The paper's ε = 0.04 at 600M rows: the Theorem-1 sample demand
		// ∝ |V_X|/ε² is independent of N, so the same ε at 250× fewer rows
		// would force full scans (the regime the paper notes where
		// "ScanMatch latencies matched that of Scan until we made ε large
		// enough"). 0.25 restores the paper's demand-to-data ratio;
		// Figure 8 sweeps ε across both regimes.
		c.Epsilon = 0.25
	}
	if c.Delta == 0 {
		c.Delta = 0.01
	}
	if c.Sigma == 0 {
		// Scaled up from the paper's 0.0008 to fit the generated
		// selectivity profiles while keeping σN above the per-candidate
		// stage-2/3 sample demand — the paper's σN ≫ n' headroom.
		c.Sigma = 0.0015
	}
	if c.Lookahead == 0 {
		c.Lookahead = 1024
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	return c
}

// queryState caches per-query derived data.
type queryState struct {
	spec    QuerySpec
	plan    *engine.Plan // resolved once; reused across runs
	target  *histogram.Histogram
	exact   []*histogram.Histogram // exact candidate histograms
	total   int64                  // total rows in dataset
	zLabels []string
}

// Workspace holds generated datasets, engines, and cached exact answers
// for the full query suite.
type Workspace struct {
	Cfg     Config
	tables  map[string]*colstore.Table
	engines map[string]*engine.Engine
	queries map[string]*queryState
}

// NewWorkspace generates the three datasets and resolves every query's
// target. This is the (untimed) preprocessing phase.
func NewWorkspace(cfg Config) (*Workspace, error) {
	cfg = cfg.WithDefaults()
	w := &Workspace{
		Cfg:     cfg,
		tables:  make(map[string]*colstore.Table),
		engines: make(map[string]*engine.Engine),
		queries: make(map[string]*queryState),
	}
	for i, name := range []string{"flights", "taxi", "police"} {
		ds, err := datagen.ByName(name, cfg.Rows, cfg.Seed+int64(i)*101, cfg.BlockSize)
		if err != nil {
			return nil, err
		}
		w.tables[name] = ds.Table
		w.engines[name] = engine.New(ds.Table)
	}
	for _, q := range Queries {
		if err := w.prepare(q); err != nil {
			return nil, fmt.Errorf("expt: preparing %s: %w", q.ID, err)
		}
	}
	return w, nil
}

// Table returns a generated dataset by name.
func (w *Workspace) Table(dataset string) (*colstore.Table, error) {
	tbl, ok := w.tables[dataset]
	if !ok {
		return nil, fmt.Errorf("expt: no dataset %q", dataset)
	}
	return tbl, nil
}

// prepare computes exact candidate histograms and the target for a query.
func (w *Workspace) prepare(spec QuerySpec) error {
	tbl, err := w.Table(spec.Dataset)
	if err != nil {
		return err
	}
	zc, err := tbl.Column(spec.Z)
	if err != nil {
		return err
	}
	xc, err := tbl.Column(spec.X)
	if err != nil {
		return err
	}
	st := &queryState{spec: spec, total: int64(tbl.NumRows())}
	// Plan once per query: the plan builds (and caches) the Z index, so
	// index construction lands in the untimed preprocessing phase, and
	// every run reuses the resolved mappers.
	st.plan, err = w.engines[spec.Dataset].Prepare(engine.Query{Z: spec.Z, X: []string{spec.X}})
	if err != nil {
		return err
	}
	st.exact = make([]*histogram.Histogram, zc.Cardinality())
	for i := range st.exact {
		st.exact[i] = histogram.New(xc.Cardinality())
	}
	for row := 0; row < tbl.NumRows(); row++ {
		st.exact[zc.Code(row)].Add(int(xc.Code(row)))
	}
	st.zLabels = zc.Dict.Values()

	switch spec.Target {
	case TargetExplicit:
		if len(spec.ExplicitTarget) != xc.Cardinality() {
			return fmt.Errorf("explicit target arity %d != |V_X| %d", len(spec.ExplicitTarget), xc.Cardinality())
		}
		st.target = histogram.FromCounts(spec.ExplicitTarget)
	case TargetTopCandidate:
		best, bestN := 0, -1.0
		for i, h := range st.exact {
			if h.Total() > bestN {
				best, bestN = i, h.Total()
			}
		}
		st.target = st.exact[best].Clone()
	case TargetRareCandidate:
		// Smallest candidate whose selectivity is ≥ 4σ: rare enough to be
		// interesting, safe from stage-1 pruning.
		floor := 4 * w.Cfg.Sigma * float64(st.total)
		best, bestN := -1, -1.0
		for i, h := range st.exact {
			if h.Total() >= floor && (bestN < 0 || h.Total() < bestN) {
				best, bestN = i, h.Total()
			}
		}
		if best < 0 {
			return fmt.Errorf("no candidate above 4σ floor")
		}
		st.target = st.exact[best].Clone()
	case TargetNearUniform:
		uni := uniformTarget(xc.Cardinality())
		best, bestD := -1, 0.0
		floor := w.Cfg.Sigma * float64(st.total)
		for i, h := range st.exact {
			if h.Total() < floor {
				continue
			}
			d := histogram.L1(h, uni)
			if best < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		if best < 0 {
			return fmt.Errorf("no candidate above σ floor")
		}
		st.target = st.exact[best].Clone()
	default:
		return fmt.Errorf("unknown target kind %d", spec.Target)
	}
	w.queries[spec.ID] = st
	return nil
}

// state returns the cached query state.
func (w *Workspace) state(queryID string) (*queryState, error) {
	st, ok := w.queries[queryID]
	if !ok {
		return nil, fmt.Errorf("expt: query %q not prepared", queryID)
	}
	return st, nil
}

// Target returns the resolved target histogram for a query.
func (w *Workspace) Target(queryID string) (*histogram.Histogram, error) {
	st, err := w.state(queryID)
	if err != nil {
		return nil, err
	}
	return st.target, nil
}

// RunOverrides tweak a single run relative to the workspace defaults.
type RunOverrides struct {
	// Epsilon/Delta/Sigma override the config values when positive
	// (SigmaZero forces σ = 0 explicitly).
	Epsilon, Delta, Sigma float64
	SigmaZero             bool
	// Lookahead overrides the FastMatch window when positive.
	Lookahead int
	// Metric overrides the distance metric.
	Metric histogram.Metric
	// Seed randomizes the scan start position.
	Seed int64
	// MaxRounds caps stage-2 rounds when positive.
	MaxRounds int
}

// params builds core.Params for a run.
func (w *Workspace) params(st *queryState, ov RunOverrides) core.Params {
	eps := w.Cfg.Epsilon
	if ov.Epsilon > 0 {
		eps = ov.Epsilon
	} else {
		// The sample demand is ∝ |V_X|/ε², so the config ε (calibrated
		// for 24-group histograms) maps to an equivalent-cost ε for other
		// group counts: binary-group queries get a much tighter bound at
		// the same I/O budget. Explicit overrides (the Figure-8 sweep)
		// bypass this.
		eps *= math.Sqrt(float64(st.target.Groups()) / 24)
		if eps < 0.06 {
			eps = 0.06
		}
		if eps > 0.4 {
			eps = 0.4
		}
	}
	delta := w.Cfg.Delta
	if ov.Delta > 0 {
		delta = ov.Delta
	}
	sigma := w.Cfg.Sigma
	if ov.Sigma > 0 {
		sigma = ov.Sigma
	}
	if ov.SigmaZero {
		sigma = 0
	}
	// Stage-1 sample: enough for the rarity test to see ~100 expected
	// tuples at the σ boundary, without the paper's half-million floor
	// (0.08% of their data) becoming a fixed 5–10% tax at our scale.
	m := int(st.total / 40)
	if m > 500_000 {
		m = 500_000
	}
	if m < 20_000 {
		m = 20_000
	}
	return core.Params{
		K:             st.spec.K,
		Epsilon:       eps,
		Delta:         delta,
		Sigma:         sigma,
		Stage1Samples: m,
		Metric:        ov.Metric,
		MaxRounds:     ov.MaxRounds,
	}
}

// options builds the engine options of one run: the one place both Run
// and audit take them from.
func (w *Workspace) options(st *queryState, exec engine.Executor, ov RunOverrides) engine.Options {
	lookahead := w.Cfg.Lookahead
	if ov.Lookahead > 0 {
		lookahead = ov.Lookahead
	}
	return engine.Options{
		Params:     w.params(st, ov),
		Executor:   exec,
		Lookahead:  lookahead,
		StartBlock: -1,
		Seed:       ov.Seed + w.Cfg.RunSeed,
	}
}

// Run executes one query with one executor and returns the engine result.
// The query's Plan is prepared once at workspace construction (indexes
// built untimed) and shared across runs; each run owns fresh sampler
// state, so concurrent Run calls are safe.
func (w *Workspace) Run(queryID string, exec engine.Executor, ov RunOverrides) (*engine.Result, error) {
	st, err := w.state(queryID)
	if err != nil {
		return nil, err
	}
	return st.plan.RunWithTarget(st.target, w.options(st, exec, ov))
}

// audit grades a result of Run(queryID, exec, ov) against both
// guarantees with engine.AuditRun, under the options that run used.
func (w *Workspace) audit(queryID string, exec engine.Executor, ov RunOverrides, res *engine.Result) (*engine.Audit, error) {
	st, err := w.state(queryID)
	if err != nil {
		return nil, err
	}
	return engine.AuditRun(context.Background(), st.plan, st.target, res, w.options(st, exec, ov))
}

// TimedRun averages wall-clock time over reps runs with distinct seeds and
// returns the last result.
func (w *Workspace) TimedRun(queryID string, exec engine.Executor, ov RunOverrides, reps int) (time.Duration, *engine.Result, error) {
	if reps <= 0 {
		reps = w.Cfg.Reps
	}
	var total time.Duration
	var last *engine.Result
	for r := 0; r < reps; r++ {
		ov.Seed = ov.Seed*31 + int64(r) + 1
		res, err := w.Run(queryID, exec, ov)
		if err != nil {
			return 0, nil, err
		}
		total += res.Duration
		last = res
	}
	return total / time.Duration(reps), last, nil
}

// ExactTopK returns the brute-force top-k (post σ-pruning) and the exact
// distance of every candidate, under the given metric.
func (w *Workspace) ExactTopK(queryID string, metric histogram.Metric, sigma float64) ([]histogram.Ranked, []float64, error) {
	st, err := w.state(queryID)
	if err != nil {
		return nil, nil, err
	}
	dist := make([]float64, len(st.exact))
	var keep []int
	floor := sigma * float64(st.total)
	for i, h := range st.exact {
		dist[i] = metric.Distance(h, st.target)
		if h.Total() >= floor {
			keep = append(keep, i)
		}
	}
	return histogram.TopK(dist, keep, st.spec.K), dist, nil
}
