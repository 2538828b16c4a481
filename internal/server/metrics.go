package server

import (
	"sort"
	"sync"
	"time"

	"fastmatch/internal/cluster"
	"fastmatch/internal/colstore"
	"fastmatch/internal/engine"
	"fastmatch/internal/ingest"
	"fastmatch/internal/obs/metrics"
)

// latencyWindow is how many recent request latencies each table keeps for
// quantile estimation. A fixed ring keeps the memory bound and weights the
// quantiles toward current behavior, which is what an operator watching
// /v1/stats wants.
const latencyWindow = 1024

// tableMetrics accumulates per-table serving statistics. One instance per
// registry entry; all methods are safe for concurrent use.
type tableMetrics struct {
	mu sync.Mutex
	// c holds the counters in their wire form; snapshot copies it whole
	// and fills in the rest (quantiles, histograms).
	c TableMetrics
	// qualityRounds is the stage-2 round distribution of sampling runs;
	// auditPrecision the shadow audits' ground-truth precision@k
	// distribution.
	qualityRounds  *metrics.Histogram
	auditPrecision *metrics.Histogram
	latencies      [latencyWindow]time.Duration
	latCount       int // total observations (ring index = latCount % window)
	// latHist is the bucketed latency distribution behind the
	// fastmatch_request_duration_seconds series on /metrics; the
	// quantile ring above stays for /v1/stats.
	latHist *metrics.Histogram
}

// roundsBuckets bounds the fastmatch_quality_rounds histogram: most runs
// converge within a handful of stage-2 rounds, with a long tail worth
// seeing separately.
var roundsBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24}

// precisionBuckets bounds the fastmatch_audit_precision_at_k histogram
// over [0, 1]; the upper buckets are dense because the (ε, δ) guarantee
// makes anything below 1 the interesting region.
var precisionBuckets = []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}

func newTableMetrics() *tableMetrics {
	return &tableMetrics{
		latHist:        metrics.NewHistogram(metrics.DefaultLatencyBuckets),
		qualityRounds:  metrics.NewHistogram(roundsBuckets),
		auditPrecision: metrics.NewHistogram(precisionBuckets),
	}
}

// runOutcome classifies how a query request ended, for the per-table
// counters an operator reads off /v1/stats.
type runOutcome int

const (
	// outcomeOK answered the query (possibly from cache, possibly with a
	// best-effort partial result — see the partial flag).
	outcomeOK runOutcome = iota
	// outcomeFailed is a processing error (bad request, planning or run
	// failure): a 4xx/5xx response.
	outcomeFailed
	// outcomeCanceled is a client that went away — while queued for
	// admission or mid-run — before an answer could be delivered.
	outcomeCanceled
	// outcomeTimedOut hit the per-table/request query timeout.
	outcomeTimedOut
)

// String names the outcome for logs and the /metrics outcome label.
func (oc runOutcome) String() string {
	switch oc {
	case outcomeOK:
		return "ok"
	case outcomeFailed:
		return "failed"
	case outcomeCanceled:
		return "canceled"
	case outcomeTimedOut:
		return "timed_out"
	default:
		return "unknown"
	}
}

// observeAppend records one append request against the table.
func (m *tableMetrics) observeAppend(rows int, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.AppendRequests++
	m.c.AppendedRows += int64(rows)
	if failed {
		m.c.AppendErrors++
	}
}

// observe records one completed query request. res is nil for cache hits
// and for requests that never ran; a non-nil res contributes its I/O and
// sample counters even when the run was cut short (a canceled run's
// partial work is still work the table did).
func (m *tableMetrics) observe(d time.Duration, res *engine.Result, oc runOutcome, planHit, resultHit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &m.c
	c.Requests++
	switch oc {
	case outcomeFailed:
		c.Errors++
	case outcomeCanceled:
		c.Canceled++
	case outcomeTimedOut:
		c.TimedOut++
	case outcomeOK:
		if resultHit {
			c.ResultCacheHits++
		} else {
			c.ResultCacheMisses++
			if planHit {
				c.PlanCacheHits++
			} else {
				c.PlanCacheMisses++
			}
		}
	}
	if res != nil {
		if res.Partial {
			c.PartialResults++
		}
		if q := res.Quality; q != nil {
			c.QualityRuns++
			c.QualityFinalMargin = q.FinalGap
			m.qualityRounds.Observe(float64(q.Rounds))
			if q.Truncated {
				c.QualityTruncatedRuns++
			}
		}
		c.IO.Add(res.IO)
		c.SamplesDrawn += res.Stats.TotalSamples()
		c.SamplesStage1 += res.Stats.SamplesStage1
		c.SamplesStage2 += res.Stats.SamplesStage2
		c.SamplesStage3 += res.Stats.SamplesStage3
		c.Rounds += int64(res.Stats.Rounds)
	}
	m.latencies[m.latCount%latencyWindow] = d
	m.latCount++
	if m.latHist != nil {
		m.latHist.Observe(d.Seconds())
	}
}

// observeAudit records one shadow-audit outcome against the table.
// failed covers both audit errors and capacity skips; a successful audit
// contributes its precision@k and the violations of either guarantee it
// found.
func (m *tableMetrics) observeAudit(a *engine.Audit, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.AuditRuns++
	if failed || a == nil {
		m.c.AuditErrors++
		return
	}
	m.c.AuditGuaranteeViolations += int64(a.GuaranteeViolations + a.ReconstructionViolations)
	m.auditPrecision.Observe(a.PrecisionAtK)
}

// TableMetrics is the JSON form of one table's serving statistics,
// surfaced by /v1/stats.
type TableMetrics struct {
	// Requests counts /v1/query and /v1/query/stream requests for the
	// table; Errors the subset that failed with a 4xx/5xx.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Canceled counts requests whose client went away before an answer
	// (queued or mid-run); TimedOut those stopped by the query timeout;
	// PartialResults the responses served with a best-effort partial
	// answer (timeouts and row budgets).
	Canceled       int64 `json:"canceled,omitempty"`
	TimedOut       int64 `json:"timed_out,omitempty"`
	PartialResults int64 `json:"partial_results,omitempty"`
	// ResultCacheHits/Misses count whole-result reuse; plan counters only
	// cover result-cache misses (hits never consult the plan cache).
	ResultCacheHits   int64 `json:"result_cache_hits"`
	ResultCacheMisses int64 `json:"result_cache_misses"`
	PlanCacheHits     int64 `json:"plan_cache_hits"`
	PlanCacheMisses   int64 `json:"plan_cache_misses"`
	// IO aggregates engine I/O counters across all executed runs.
	IO engine.IOStats `json:"io"`
	// SamplesDrawn aggregates HistSim tuples consumed across runs;
	// SamplesStage1/2/3 split it by algorithm stage, and Rounds counts
	// stage-2 refinement rounds across runs.
	SamplesDrawn  int64 `json:"samples_drawn"`
	SamplesStage1 int64 `json:"samples_stage1,omitempty"`
	SamplesStage2 int64 `json:"samples_stage2,omitempty"`
	SamplesStage3 int64 `json:"samples_stage3,omitempty"`
	Rounds        int64 `json:"rounds,omitempty"`
	// AppendRequests/AppendedRows/AppendErrors count POST .../rows calls
	// served for the table (always zero for static backends).
	AppendRequests int64 `json:"append_requests,omitempty"`
	AppendedRows   int64 `json:"appended_rows,omitempty"`
	AppendErrors   int64 `json:"append_errors,omitempty"`
	// QualityRuns counts sampling runs (each carries an answer-quality
	// report); QualityTruncatedRuns the subset cut short before the (ε, δ)
	// guarantee held; QualityFinalMargin is the most recent completed
	// run's observed separation margin τ_(k+1) − τ_(k).
	QualityRuns          int64   `json:"quality_runs,omitempty"`
	QualityTruncatedRuns int64   `json:"quality_truncated_runs,omitempty"`
	QualityFinalMargin   float64 `json:"quality_final_margin,omitempty"`
	// AuditRuns counts shadow audits attempted; AuditErrors the subset
	// that failed or were skipped at capacity; AuditGuaranteeViolations
	// the separation (ε-tolerant) and reconstruction violations found
	// across all successful audits (expected ≈ δ × audited answers).
	AuditRuns                int64 `json:"audit_runs,omitempty"`
	AuditErrors              int64 `json:"audit_errors,omitempty"`
	AuditGuaranteeViolations int64 `json:"audit_guarantee_violations,omitempty"`
	// LatencyMS holds quantiles over the most recent requests.
	LatencyMS LatencyQuantiles `json:"latency_ms"`
	// Storage reports the table's storage backend and mapped/heap bytes
	// (filled in by the registry, not the per-table counters).
	Storage colstore.StorageStats `json:"storage"`
	// Ingest carries the live table's ingest counters (nil for static
	// backends; filled in by the registry).
	Ingest *ingest.Stats `json:"ingest,omitempty"`
	// Shards carries per-shard client counters for coordinated tables
	// (nil otherwise; filled in by the registry).
	Shards []cluster.ShardClientStats `json:"shards,omitempty"`
	// LatencyHist is the bucketed request-duration distribution backing
	// /metrics; excluded from the /v1/stats JSON (the quantile summary
	// above serves that endpoint). QualityRoundsHist and
	// AuditPrecisionHist likewise back the fastmatch_quality_rounds and
	// fastmatch_audit_precision_at_k families.
	LatencyHist        metrics.HistSnapshot `json:"-"`
	QualityRoundsHist  metrics.HistSnapshot `json:"-"`
	AuditPrecisionHist metrics.HistSnapshot `json:"-"`
}

// LatencyQuantiles summarizes the recent-latency window in milliseconds.
type LatencyQuantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
	// Window is the number of observations the quantiles are over.
	Window int `json:"window"`
}

// snapshot returns a consistent copy of the metrics.
func (m *tableMetrics) snapshot() TableMetrics {
	m.mu.Lock()
	n := m.latCount
	if n > latencyWindow {
		n = latencyWindow
	}
	lats := make([]time.Duration, n)
	copy(lats, m.latencies[:n])
	out := m.c
	m.mu.Unlock()
	if m.latHist != nil {
		out.LatencyHist = m.latHist.Snapshot()
	}
	if m.qualityRounds != nil {
		out.QualityRoundsHist = m.qualityRounds.Snapshot()
	}
	if m.auditPrecision != nil {
		out.AuditPrecisionHist = m.auditPrecision.Snapshot()
	}
	if n > 0 {
		// The copy above takes latencies[:n]: before the ring wraps
		// (latCount ≤ window) those are exactly the n observations; after
		// it wraps the ring is full (n == window), so the slice is the
		// whole window regardless of where the write cursor sits — order
		// does not matter because quantiles sort first.
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		// Linear interpolation between the surrounding order statistics
		// (the "type 7" estimator): q*(n-1) is in general fractional, and
		// truncating it would systematically understate upper quantiles
		// on small windows.
		quantile := func(q float64) float64 {
			pos := q * float64(n-1)
			i := int(pos)
			lo := ms(lats[i])
			if frac := pos - float64(i); frac > 0 && i+1 < n {
				return lo + frac*(ms(lats[i+1])-lo)
			}
			return lo
		}
		out.LatencyMS = LatencyQuantiles{
			P50:    quantile(0.50),
			P90:    quantile(0.90),
			P99:    quantile(0.99),
			Max:    ms(lats[n-1]),
			Window: n,
		}
	}
	return out
}
