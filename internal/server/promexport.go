package server

import (
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"fastmatch/internal/obs/metrics"
)

// buildInfo resolves the binary's version metadata once. Shared by
// /metrics (fastmatch_build_info) and /v1/healthz.
var buildInfo = sync.OnceValue(func() (bi struct {
	Version, Revision, GoVersion string
}) {
	bi.Version = "unknown"
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.GoVersion = info.GoVersion
	if v := info.Main.Version; v != "" && v != "(devel)" {
		bi.Version = v
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			bi.Revision = s.Value
		}
	}
	return bi
})

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format. Every series is rendered from the exact same snapshots
// /v1/stats serves (registry metrics, cache stats, admission stats), so
// the two endpoints can never disagree about a counter.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	tables := s.reg.metricsSnapshot()
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)

	pw := metrics.NewWriter()

	bi := buildInfo()
	pw.Gauge("fastmatch_build_info", "Build metadata; value is always 1.").
		Sample(1, "version", bi.Version, "revision", bi.Revision, "go_version", bi.GoVersion)
	pw.Gauge("fastmatch_uptime_seconds", "Seconds since the server started.").
		Sample(time.Since(s.started).Seconds())
	pw.Gauge("fastmatch_tables", "Registered tables.").Sample(float64(len(tables)))

	// Per-table request counters. The outcome split reconstructs "ok"
	// from the same fields /v1/stats reports, so the two endpoints agree
	// by construction.
	reqs := pw.Counter("fastmatch_requests_total", "Query requests by table and outcome.")
	for _, n := range names {
		m := tables[n]
		reqs.Sample(float64(m.Requests-m.Errors-m.Canceled-m.TimedOut), "table", n, "outcome", "ok")
		reqs.Sample(float64(m.Errors), "table", n, "outcome", "failed")
		reqs.Sample(float64(m.Canceled), "table", n, "outcome", "canceled")
		reqs.Sample(float64(m.TimedOut), "table", n, "outcome", "timed_out")
	}
	partials := pw.Counter("fastmatch_partial_results_total", "Responses served with a best-effort partial answer.")
	for _, n := range names {
		partials.Sample(float64(tables[n].PartialResults), "table", n)
	}

	// Coordinated tables: per-shard client health and traffic, labeled
	// by coordinator table and shard name. Tables without shards emit no
	// series. The latency pair follows the Prometheus summary convention
	// (_sum seconds / _count observations) so avg round-trip is
	// rate(sum)/rate(count).
	shardHealthy := pw.Gauge("fastmatch_shard_healthy", "Whether the shard's most recent call succeeded (1) or failed (0).")
	shardReqs := pw.Counter("fastmatch_shard_requests_total", "Shard HTTP attempts (retries included).")
	shardErrs := pw.Counter("fastmatch_shard_errors_total", "Failed shard HTTP attempts.")
	shardRetries := pw.Counter("fastmatch_shard_retries_total", "Shard call re-attempts after a failure.")
	shardLatSum := pw.Counter("fastmatch_shard_latency_seconds_sum", "Total shard round-trip seconds.")
	shardLatCount := pw.Counter("fastmatch_shard_latency_seconds_count", "Shard round-trips measured.")
	for _, n := range names {
		for _, sc := range tables[n].Shards {
			healthy := 0.0
			if sc.Healthy {
				healthy = 1
			}
			shardHealthy.Sample(healthy, "table", n, "shard", sc.Name)
			shardReqs.Sample(float64(sc.Requests), "table", n, "shard", sc.Name)
			shardErrs.Sample(float64(sc.Errors), "table", n, "shard", sc.Name)
			shardRetries.Sample(float64(sc.Retries), "table", n, "shard", sc.Name)
			shardLatSum.Sample(float64(sc.LatencySumNS)/1e9, "table", n, "shard", sc.Name)
			shardLatCount.Sample(float64(sc.LatencyCount), "table", n, "shard", sc.Name)
		}
	}

	type tableCounter struct {
		name, help string
		get        func(TableMetrics) float64
	}
	for _, tc := range []tableCounter{
		{"fastmatch_result_cache_hits_total", "Whole-result cache hits.",
			func(m TableMetrics) float64 { return float64(m.ResultCacheHits) }},
		{"fastmatch_result_cache_misses_total", "Whole-result cache misses.",
			func(m TableMetrics) float64 { return float64(m.ResultCacheMisses) }},
		{"fastmatch_plan_cache_hits_total", "Plan cache hits (result-cache misses only).",
			func(m TableMetrics) float64 { return float64(m.PlanCacheHits) }},
		{"fastmatch_plan_cache_misses_total", "Plan cache misses (result-cache misses only).",
			func(m TableMetrics) float64 { return float64(m.PlanCacheMisses) }},
		{"fastmatch_blocks_read_total", "Blocks read by engine runs.",
			func(m TableMetrics) float64 { return float64(m.IO.BlocksRead) }},
		{"fastmatch_blocks_skipped_total", "Blocks skipped by sampling lookahead.",
			func(m TableMetrics) float64 { return float64(m.IO.BlocksSkipped) }},
		{"fastmatch_blocks_pruned_total", "Blocks pruned by zone-map skip masks.",
			func(m TableMetrics) float64 { return float64(m.IO.BlocksPruned) }},
		{"fastmatch_tuples_read_total", "Tuples consumed by engine runs.",
			func(m TableMetrics) float64 { return float64(m.IO.TuplesRead) }},
		{"fastmatch_kernel_blocks_total", "Blocks processed by vectorized scan kernels.",
			func(m TableMetrics) float64 { return float64(m.IO.KernelBlocks) }},
		{"fastmatch_wraps_total", "Circular-scan wraparounds.",
			func(m TableMetrics) float64 { return float64(m.IO.Wraps) }},
		{"fastmatch_histsim_rounds_total", "HistSim stage-2 refinement rounds.",
			func(m TableMetrics) float64 { return float64(m.Rounds) }},
		{"fastmatch_append_requests_total", "Row-append requests.",
			func(m TableMetrics) float64 { return float64(m.AppendRequests) }},
		{"fastmatch_appended_rows_total", "Rows appended.",
			func(m TableMetrics) float64 { return float64(m.AppendedRows) }},
		{"fastmatch_append_errors_total", "Failed row-append requests.",
			func(m TableMetrics) float64 { return float64(m.AppendErrors) }},
		{"fastmatch_quality_runs_total", "Runs that carried an answer-quality report.",
			func(m TableMetrics) float64 { return float64(m.QualityRuns) }},
		{"fastmatch_quality_truncated_total", "Quality-reporting runs cut short before the guarantee held.",
			func(m TableMetrics) float64 { return float64(m.QualityTruncatedRuns) }},
		{"fastmatch_audit_runs_total", "Shadow audits attempted (exact re-executions of sampled answers).",
			func(m TableMetrics) float64 { return float64(m.AuditRuns) }},
		{"fastmatch_audit_errors_total", "Shadow audits that failed or were skipped at capacity.",
			func(m TableMetrics) float64 { return float64(m.AuditErrors) }},
		{"fastmatch_audit_guarantee_violations_total", "Shadow-audit violations of the epsilon-tolerant separation or the reconstruction guarantee.",
			func(m TableMetrics) float64 { return float64(m.AuditGuaranteeViolations) }},
	} {
		fam := pw.Counter(tc.name, tc.help)
		for _, n := range names {
			fam.Sample(tc.get(tables[n]), "table", n)
		}
	}

	samples := pw.Counter("fastmatch_samples_total", "HistSim samples drawn, by algorithm stage.")
	for _, n := range names {
		m := tables[n]
		samples.Sample(float64(m.SamplesStage1), "table", n, "stage", "1")
		samples.Sample(float64(m.SamplesStage2), "table", n, "stage", "2")
		samples.Sample(float64(m.SamplesStage3), "table", n, "stage", "3")
	}

	lat := pw.HistogramFamily("fastmatch_request_duration_seconds", "Query request latency.")
	for _, n := range names {
		lat.Histogram(tables[n].LatencyHist, "table", n)
	}

	// Answer-quality distributions and the last observed margin. The
	// margin gauge is only meaningful after a quality-reporting run, so
	// tables without one emit no series.
	qm := pw.Gauge("fastmatch_quality_final_margin", "Most recent quality-reporting run's observed separation margin.")
	for _, n := range names {
		if tables[n].QualityRuns > 0 {
			qm.Sample(tables[n].QualityFinalMargin, "table", n)
		}
	}
	qr := pw.HistogramFamily("fastmatch_quality_rounds", "Stage-2 refinement rounds per quality-reporting run.")
	for _, n := range names {
		qr.Histogram(tables[n].QualityRoundsHist, "table", n)
	}
	ap := pw.HistogramFamily("fastmatch_audit_precision_at_k", "Ground-truth precision@k measured by shadow audits.")
	for _, n := range names {
		ap.Histogram(tables[n].AuditPrecisionHist, "table", n)
	}

	// Ingest state (live tables only; static tables emit no series).
	type ingestGauge struct {
		name, help string
		get        func(TableMetrics) float64
	}
	for _, ig := range []ingestGauge{
		{"fastmatch_ingest_rows", "Live table rows (sealed + unsealed).",
			func(m TableMetrics) float64 { return float64(m.Ingest.Rows) }},
		{"fastmatch_ingest_persisted_rows", "Rows persisted in compacted segment files.",
			func(m TableMetrics) float64 { return float64(m.Ingest.PersistedRows) }},
		{"fastmatch_ingest_generation", "Live table data generation.",
			func(m TableMetrics) float64 { return float64(m.Ingest.Generation) }},
		{"fastmatch_ingest_segments", "Live sealed segments.",
			func(m TableMetrics) float64 { return float64(m.Ingest.Segments) }},
		{"fastmatch_ingest_segment_pins", "Sum of live segment reference counts.",
			func(m TableMetrics) float64 { return float64(m.Ingest.SegmentPins) }},
		{"fastmatch_ingest_wal_bytes", "Live write-ahead log size in bytes.",
			func(m TableMetrics) float64 { return float64(m.Ingest.WALBytes) }},
	} {
		fam := pw.Gauge(ig.name, ig.help)
		for _, n := range names {
			if tables[n].Ingest != nil {
				fam.Sample(ig.get(tables[n]), "table", n)
			}
		}
	}
	for _, ic := range []ingestGauge{
		{"fastmatch_ingest_wal_syncs_total", "WAL fsync calls.",
			func(m TableMetrics) float64 { return float64(m.Ingest.WALSyncs) }},
		{"fastmatch_ingest_replayed_rows_total", "Rows recovered from the WAL at open.",
			func(m TableMetrics) float64 { return float64(m.Ingest.ReplayedRows) }},
		{"fastmatch_ingest_seals_total", "Segment seal events.",
			func(m TableMetrics) float64 { return float64(m.Ingest.Seals) }},
		{"fastmatch_ingest_compactions_total", "Completed compaction cycles.",
			func(m TableMetrics) float64 { return float64(m.Ingest.Compactions) }},
		{"fastmatch_ingest_compact_errors_total", "Failed compaction cycles.",
			func(m TableMetrics) float64 { return float64(m.Ingest.CompactErrors) }},
	} {
		fam := pw.Counter(ic.name, ic.help)
		for _, n := range names {
			if tables[n].Ingest != nil {
				fam.Sample(ic.get(tables[n]), "table", n)
			}
		}
	}

	// Server-wide caches and admission, from the same snapshots /v1/stats
	// serves.
	plan, result := s.plans.Stats(), s.results.Stats()
	ce := pw.Gauge("fastmatch_cache_entries", "Current cache entries.")
	ce.Sample(float64(plan.Entries), "cache", "plan")
	ce.Sample(float64(result.Entries), "cache", "result")
	cc := pw.Gauge("fastmatch_cache_capacity", "Configured cache capacity.")
	cc.Sample(float64(plan.Capacity), "cache", "plan")
	cc.Sample(float64(result.Capacity), "cache", "result")
	ch := pw.Counter("fastmatch_cache_hits_total", "Cache hits.")
	ch.Sample(float64(plan.Hits), "cache", "plan")
	ch.Sample(float64(result.Hits), "cache", "result")
	cm := pw.Counter("fastmatch_cache_misses_total", "Cache misses.")
	cm.Sample(float64(plan.Misses), "cache", "plan")
	cm.Sample(float64(result.Misses), "cache", "result")

	adm := s.adm.stats()
	pw.Gauge("fastmatch_admission_limit", "Concurrent engine-run bound.").Sample(float64(adm.Limit))
	pw.Gauge("fastmatch_admission_in_flight", "Engine runs currently holding a slot.").Sample(float64(adm.InFlight))
	pw.Gauge("fastmatch_admission_waiting", "Requests currently queued for a slot.").Sample(float64(adm.Waiting))
	pw.Counter("fastmatch_admission_rejected_total", "Requests rejected at capacity (503).").Sample(float64(adm.Rejected))
	pw.Counter("fastmatch_admission_canceled_total", "Queued requests abandoned by their client.").Sample(float64(adm.Canceled))
	pw.Counter("fastmatch_admission_waits_total", "Requests that ever queued for a slot.").Sample(float64(adm.Waits))
	pw.HistogramFamily("fastmatch_admission_wait_seconds", "Time spent queued for an admission slot.").
		Histogram(s.adm.waitHist.Snapshot())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(pw.Bytes())
}
