package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (a unit test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound > 0 makes the metric end-to-end and gated: the share of the
	// parent's median it may worsen by. Per-layer metrics have none.
	bound float64
	layer string // the module a per-layer metric belongs to
}

// endToEnd are the metrics a client of the system sees, measured with
// tracing, audits and debug logging off.
var endToEnd = []metricDef{
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "qps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer are reported by traced runs only and never gated. Counters are
// deltas over the measured window; timings come from the in-process layer
// pass and the traced replay of the request prefix.
var perLayer = []metricDef{
	{layer: "colstore", name: "colstore_open_ms", unit: "ms", better: "lower"},
	{layer: "colstore", name: "colstore_read_ns_per_row", unit: "ns", better: "lower"},
	{layer: "bitmap", name: "bitmap_build_ms", unit: "ms", better: "lower"},
	{layer: "bitmap", name: "bitmap_anyactive_ns", unit: "ns", better: "lower"},
	{layer: "engine", name: "engine_prepare_ms", unit: "ms", better: "lower"},
	{layer: "engine", name: "engine_resolve_target_ms", unit: "ms", better: "lower"},
	{layer: "engine", name: "engine_run_ms.scan", unit: "ms", better: "lower"},
	{layer: "engine", name: "engine_run_ms.parallelscan", unit: "ms", better: "lower"},
	{layer: "engine", name: "engine_run_ms.scanmatch", unit: "ms", better: "lower"},
	{layer: "engine", name: "engine_run_ms.syncmatch", unit: "ms", better: "lower"},
	{layer: "engine", name: "engine_run_ms.fastmatch", unit: "ms", better: "lower"},
	{layer: "engine", name: "engine_stage_ms.stage1", unit: "ms", better: "lower"},
	{layer: "engine", name: "engine_stage_ms.stage2", unit: "ms", better: "lower"},
	{layer: "engine", name: "engine_stage_ms.stage3", unit: "ms", better: "lower"},
	{layer: "engine", name: "engine_sample_fraction", unit: "ratio", better: "lower"},
	{layer: "engine", name: "engine_rounds", unit: "count", better: "lower"},
	{layer: "engine", name: "engine_blocks_skipped_frac", unit: "ratio", better: "higher"},
	{layer: "engine", name: "engine_workers_speedup.parallelscan", unit: "ratio", better: "higher"},
	{layer: "engine", name: "engine_workers_speedup.syncmatch", unit: "ratio", better: "higher"},
	{layer: "core", name: "core_merge_us", unit: "us", better: "lower"},
	{layer: "core", name: "core_batch_encode_us", unit: "us", better: "lower"},
	{layer: "core", name: "core_batch_decode_us", unit: "us", better: "lower"},
	{layer: "core", name: "core_batch_wire_bytes", unit: "bytes", better: "lower"},
	{layer: "server", name: "server_hit_us", unit: "us", better: "lower"},
	{layer: "server", name: "server_overhead_us", unit: "us", better: "lower"},
	{layer: "server", name: "server_response_bytes", unit: "bytes", better: "lower"},
	{layer: "server", name: "server_result_cache_hit_rate", unit: "ratio", better: "higher"},
	{layer: "server", name: "server_plan_cache_hit_rate", unit: "ratio", better: "higher"},
	{layer: "server", name: "server_admission_waits", unit: "count", better: "lower"},
	{layer: "server", name: "server_admission_rejected", unit: "count", better: "lower"},
	{layer: "server", name: "server_unattributed_ms", unit: "ms", better: "lower"},
	{layer: "server", name: "span_total_ms", unit: "ms", better: "lower"},
	{layer: "server", name: "span_self_ms.request", unit: "ms", better: "lower"},
	{layer: "server", name: "span_self_ms.decode", unit: "ms", better: "lower"},
	{layer: "server", name: "span_self_ms.admission", unit: "ms", better: "lower"},
	{layer: "server", name: "span_self_ms.caches", unit: "ms", better: "lower"},
	{layer: "engine", name: "span_self_ms.plan", unit: "ms", better: "lower"},
	{layer: "engine", name: "span_self_ms.resolve_target", unit: "ms", better: "lower"},
	{layer: "engine", name: "span_self_ms.run", unit: "ms", better: "lower"},
	{layer: "engine", name: "span_self_ms.workers", unit: "ms", better: "lower"},
	{layer: "engine", name: "span_self_ms.stage1", unit: "ms", better: "lower"},
	{layer: "engine", name: "span_self_ms.stage2", unit: "ms", better: "lower"},
	{layer: "engine", name: "span_self_ms.stage3", unit: "ms", better: "lower"},
	{layer: "engine", name: "span_self_ms.other", unit: "ms", better: "lower"},
	{layer: "cluster", name: "cluster_shard_requests_per_query", unit: "count", better: "lower"},
	{layer: "cluster", name: "cluster_shard_wait_ms_per_query", unit: "ms", better: "lower"},
	{layer: "cluster", name: "cluster_retries", unit: "count", better: "lower"},
	{layer: "cluster", name: "cluster_errors", unit: "count", better: "lower"},
	{layer: "cluster", name: "cluster_wire_bytes_per_query", unit: "bytes", better: "lower"},
	{layer: "cluster", name: "cluster_overhead_ms", unit: "ms", better: "lower"},
	{layer: "ingest", name: "ingest_append_us_per_row", unit: "us", better: "lower"},
	{layer: "ingest", name: "ingest_view_us", unit: "us", better: "lower"},
	{layer: "ingest", name: "ingest_write_amp", unit: "ratio", better: "lower"},
	{layer: "ingest", name: "ingest_seals", unit: "count", better: "lower"},
	{layer: "ingest", name: "ingest_compactions", unit: "count", better: "lower"},
	{layer: "ingest", name: "ingest_wal_syncs", unit: "count", better: "lower"},
	{layer: "ingest", name: "ingest_append_ack_p50_ms", unit: "ms", better: "lower"},
	{layer: "obs", name: "obs_trace_overhead_frac", unit: "ratio", better: "lower"},
	{layer: "loadgen", name: "query_p75_ms", unit: "ms", better: "lower"},
	{layer: "loadgen", name: "query_p90_ms", unit: "ms", better: "lower"},
	{layer: "loadgen", name: "samples", unit: "count", better: "higher"},
	{layer: "loadgen", name: "loadgen_late_ms", unit: "ms", better: "lower"},
	{layer: "loadgen", name: "loadgen_cpu_frac", unit: "ratio", better: "lower"},
}
