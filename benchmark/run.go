package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"time"
)

// runConfig is how one workload run is sized.
type runConfig struct {
	seed   int64
	window time.Duration
	warmup time.Duration
	boots  int  // cold starts timed for setup_s (the median is reported)
	scale  int  // dataset rows are divided by this (1: full size)
	traced bool // per-layer run: window counters, traced replay, layer pass
}

// tracePrefix is how many requests the traced replay and the in-process
// layer pass run: a fixed count, so count-based numbers repeat exactly.
const tracePrefix = 16

// runResult is one workload run's outcome.
type runResult struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	failures  []string // the first few reasons, for the report
	// metrics holds the contract metrics for the run's mode: every
	// end-to-end metric, or every per-layer metric when traced.
	metrics map[string]float64
	// info is printed but not part of the contract: datagen_s, the tail
	// percentile of an untraced run, and so on.
	info map[string]float64
}

func (r *runResult) fail(why string) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, why)
	}
}

// tally counts every query as attempted, grades the kept responses
// against the oracle (nil: structural checks only), and returns the
// latencies of the correct ones in milliseconds: a failed query counts as
// failed and contributes no latency.
func (r *runResult) tally(queries []completed, orc *oracle) []float64 {
	var latMS []float64
	for i := range queries {
		c := &queries[i]
		r.attempted++
		if c.failure == "" && c.resp != nil && orc != nil {
			c.failure = orc.grade(c.req, &c.resp.Result)
		}
		if c.failure != "" {
			r.fail(fmt.Sprintf("query target=%s seed=%d: %s", c.req.target, c.req.seed, c.failure))
			continue
		}
		latMS = append(latMS, ms(c.latency))
	}
	return latMS
}

// prepareDataset generates (or finds cached) the workload's snapshots
// and opens the unsplit one in process.
func (h *harness) prepareDataset(w *workload, scale int) (*dataset, time.Duration, error) {
	began := time.Now()
	rows := w.rows / scale
	path, err := h.snapshot(rows)
	if err != nil {
		return nil, 0, err
	}
	var shards []string
	if w.topology == "cluster3" {
		if shards, err = h.shardSnapshots(rows, 3); err != nil {
			return nil, 0, err
		}
	}
	took := time.Since(began)
	// Read every file the daemons will map once before anything is timed:
	// after a few idle minutes the first pass over cached pages runs at
	// under half speed on a VM (2.9 against 6.5 GB/s here), and that
	// belongs to neither setup_s nor the first queries.
	for _, p := range append([]string{path}, shards...) {
		if err := warmFile(p); err != nil {
			return nil, 0, err
		}
	}
	ds, err := openDataset(path)
	if err != nil {
		return nil, 0, err
	}
	ds.shardPaths = shards
	if w.topology == "ingest" {
		offsets := make([]int, rows/appendRows)
		for i := range offsets {
			offsets[i] = i * appendRows
		}
		if ds.preload, err = ds.csvBatches(offsets); err != nil {
			ds.close()
			return nil, 0, err
		}
	}
	return ds, took, nil
}

// runWorkload measures one workload once: cold starts, warm-up, the
// measured window, answer checks, and — when traced — the per-layer
// passes. It stops its daemons before returning a result; after an error
// the harness's close does.
func (h *harness) runWorkload(w *workload, cfg runConfig) (*runResult, error) {
	defer h.rec.span("workload", w.name)()
	res := &runResult{workload: w.name, traced: cfg.traced, metrics: map[string]float64{}, info: map[string]float64{}}
	ds, datagenTook, err := h.prepareDataset(w, cfg.scale)
	if err != nil {
		return nil, err
	}
	defer ds.close()
	res.info["datagen_s"] = datagenTook.Seconds()
	res.info["dataset_rows"] = float64(ds.table.NumRows())

	hc := newHTTPClient(w.clients)
	defer hc.CloseIdleConnections()
	main := newStream(w, ds.targets, cfg.seed, 0)

	// Cold starts. Each boots the whole topology from nothing (a live
	// table from an empty directory); all but the last are torn down.
	var topo *topology
	var setups []float64
	for i := 0; i < cfg.boots; i++ {
		if topo != nil {
			h.teardown(topo)
		}
		var took time.Duration
		if topo, took, err = h.setupOnce(hc, w, ds, main.next(), cfg.traced); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	url := topo.front.url

	// The hot pool is loaded once so the window starts with it cached,
	// whatever the warm-up length.
	if len(main.pool) > 0 {
		for _, c := range drive(hc, url, w.clients, ds.groups, 0, fromList(main.pool)).queries {
			if c.failure != "" {
				return nil, fmt.Errorf("loading the hot pool: %s", c.failure)
			}
		}
	}

	// The appender runs through warm-up and window on one schedule, so
	// the window sees a table that has been ingesting for a while.
	var app *appender
	var offsets []int
	if w.appendRate > 0 {
		n := int((cfg.warmup+cfg.window).Seconds()+2) * w.appendRate
		offsets = appendOffsets(cfg.seed, n, ds.table.NumRows())
		batches, err := ds.csvBatches(offsets)
		if err != nil {
			return nil, err
		}
		app = startAppender(url, batches, w.appendRate)
	}

	endWarm := h.rec.span("warmup", w.name)
	drive(hc, url, w.clients, ds.groups, 0, forDuration(main, cfg.warmup))
	endWarm()

	before, err := scrape(hc, url)
	if err != nil {
		return nil, err
	}
	wire0, wchar0 := topo.wireBytes(), procWriteBytes(topo.front.cmd.Process.Pid)
	endWindow := h.rec.span("window", w.name)
	windowLo := time.Now()
	win := drive(hc, url, w.clients, ds.groups, gradeSample, forDuration(main, cfg.window))
	windowHi := time.Now()
	endWindow()
	wire1, wchar1 := topo.wireBytes(), procWriteBytes(topo.front.cmd.Process.Pid)
	after, err := scrape(hc, url)
	if err != nil {
		return nil, err
	}
	if err := topo.err(); err != nil {
		return nil, err
	}
	if len(win.queries) == 0 {
		return nil, fmt.Errorf("%s: the window completed no query", w.name)
	}

	// Appends: every batch posted counts toward the table the daemon must
	// now hold; only those due inside the window count toward metrics.
	var acked []int
	var ackMS, lateMS []float64
	var csvBytes int64
	if app != nil {
		for i, rec := range app.stop() {
			if !rec.acked.IsZero() {
				acked = append(acked, offsets[i])
			}
			if rec.due.Before(windowLo) || rec.due.After(windowHi) {
				continue
			}
			res.attempted++
			csvBytes += int64(rec.bytes)
			lateMS = append(lateMS, ms(rec.sent.Sub(rec.due)))
			if rec.failure != "" {
				res.fail(rec.failure)
				continue
			}
			ackMS = append(ackMS, ms(rec.acked.Sub(rec.due)))
		}
	}

	var replay *replayResult
	if cfg.traced {
		prefix := make([]request, tracePrefix)
		ps := newStream(w, ds.targets, cfg.seed, 1)
		for i := range prefix {
			prefix[i] = ps.next()
		}
		if replay, err = h.replayTraced(hc, url, prefix, ds.groups); err != nil {
			return nil, err
		}
	}
	if w.topology == "ingest" {
		res.attempted++
		if why := checkLive(hc, url, w, ds, acked, win.queries[0].req); why != "" {
			res.fail(why)
		}
	}
	h.teardown(topo)

	// Grade the kept responses with the daemons gone, so the reference
	// scans do not compete with anything being measured. A live table's
	// window answers have no fixed reference; checkLive covered it.
	var orc *oracle
	if w.topology != "ingest" {
		if orc, err = newOracle(w, ds.eng); err != nil {
			return nil, err
		}
	}
	endGrade := h.rec.span("grade", w.name)
	latMS := res.tally(win.queries, orc)
	endGrade()
	if len(latMS) == 0 {
		return nil, fmt.Errorf("%s: no query succeeded; first failure: %v", w.name, res.failures)
	}

	p50 := percentile(latMS, 50)
	qps := float64(len(latMS)) / win.elapsed.Seconds()
	if !cfg.traced {
		res.metrics["query_p50_ms"] = p50
		res.metrics["qps"] = qps
		res.metrics["setup_s"] = median(setups)
		// The tail is the highest percentile with ten samples beyond it.
		res.info["samples"] = float64(len(latMS))
		if len(latMS) >= 100 {
			res.info["query_p90_ms"] = percentile(latMS, 90)
		} else {
			res.info["query_p75_ms"] = percentile(latMS, 75)
		}
		res.info["loadgen_cpu_frac"] = ratio(win.cpu.Seconds(), win.elapsed.Seconds())
		return res, nil
	}

	m := res.metrics
	res.info["query_p50_ms"], res.info["qps"], res.info["setup_s"] = p50, qps, median(setups)
	queries := float64(len(win.queries))
	m["query_p75_ms"], m["query_p90_ms"] = percentile(latMS, 75), percentile(latMS, 90)
	m["samples"] = float64(len(latMS))
	m["loadgen_late_ms"] = percentile(lateMS, 90)
	m["loadgen_cpu_frac"] = ratio(win.cpu.Seconds(), win.elapsed.Seconds())

	counterMetrics(m, before, after, queries)
	m["cluster_wire_bytes_per_query"] = ratio(float64(wire1-wire0), queries)
	m["ingest_append_ack_p50_ms"] = percentile(ackMS, 50)
	m["ingest_write_amp"] = ratio(float64(wchar1-wchar0), float64(csvBytes))

	for k, v := range replay.metrics {
		m[k] = v
	}
	layers, err := h.measureLayers(w, ds, replay.prefix)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		m[k] = v
	}
	// What the cluster adds on top of identical engine work: the replayed
	// requests' client latency against the same requests run in process on
	// one node (target resolution plus the fastmatch run).
	m["cluster_overhead_ms"] = 0
	if w.topology == "cluster3" {
		m["cluster_overhead_ms"] = replay.untracedP50 - (m["engine_resolve_target_ms"] + m["engine_run_ms.fastmatch"])
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was declared but not measured", d.name)
		}
	}
	if err := h.rec.write(filepath.Join(h.cacheDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// counterMetrics turns the daemon's counters, scraped before and after
// the window, into the per-layer metrics they feed. queries is how many
// the window sent.
func counterMetrics(m map[string]float64, before, after counters, queries float64) {
	delta := func(a, b int64) float64 { return float64(a - b) }
	hits := delta(after.table.ResultCacheHits, before.table.ResultCacheHits)
	misses := delta(after.table.ResultCacheMisses, before.table.ResultCacheMisses)
	planHits := delta(after.table.PlanCacheHits, before.table.PlanCacheHits)
	planMisses := delta(after.table.PlanCacheMisses, before.table.PlanCacheMisses)
	m["server_result_cache_hit_rate"] = ratio(hits, hits+misses)
	m["server_plan_cache_hit_rate"] = ratio(planHits, planHits+planMisses)
	m["server_admission_waits"] = delta(after.admission.Waits, before.admission.Waits)
	m["server_admission_rejected"] = delta(after.admission.Rejected, before.admission.Rejected)

	// Shards is the coordinator's per-shard client counters: empty, and
	// every cluster metric zero, on a single node.
	var requests, waitNS, retries, errs float64
	for i, s := range after.table.Shards {
		b := before.table.Shards[i]
		requests += delta(s.Requests, b.Requests)
		waitNS += delta(s.LatencySumNS, b.LatencySumNS)
		retries += delta(s.Retries, b.Retries)
		errs += delta(s.Errors, b.Errors)
	}
	m["cluster_shard_requests_per_query"] = ratio(requests, queries)
	m["cluster_shard_wait_ms_per_query"] = ratio(waitNS/1e6, queries)
	m["cluster_retries"], m["cluster_errors"] = retries, errs

	m["ingest_seals"], m["ingest_compactions"], m["ingest_wal_syncs"] = 0, 0, 0
	if a, b := after.table.Ingest, before.table.Ingest; a != nil && b != nil {
		m["ingest_seals"] = delta(a.Seals, b.Seals)
		m["ingest_compactions"] = delta(a.Compactions, b.Compactions)
		m["ingest_wal_syncs"] = delta(a.WALSyncs, b.WALSyncs)
	}
}

// replayResult is the traced replay's outcome.
type replayResult struct {
	prefix      []request
	untracedP50 float64
	metrics     map[string]float64
}

// replayTraced sends the prefix over HTTP twice: a plain pass, then a
// pass with the daemon's "trace": true flag. The plain pass runs first —
// its option seeds are new to the daemon, so it misses the result cache,
// and traced requests bypass the cache read — which makes both passes do
// the same engine work; their difference is what tracing costs. (Whole
// passes, not plain/traced pairs: the second of a pair would find the
// target's blocks warm in the CPU caches.) Each traced
// response's span tree folds into per-bucket self times, which together
// with server_unattributed_ms sum to the client-observed latency.
func (h *harness) replayTraced(hc *http.Client, url string, prefix []request, groups int) (*replayResult, error) {
	defer h.rec.span("replay", "")()
	var plain, traced, unattr []float64
	self := map[string]float64{}
	for _, req := range prefix {
		c := query(hc, url, req, groups, false)
		if c.failure != "" {
			return nil, fmt.Errorf("replay: %s", c.failure)
		}
		plain = append(plain, ms(c.latency))
	}
	for _, req := range prefix {
		end := h.rec.span("request", req.target)
		began := time.Now()
		tr := req
		tr.body = withTrace(req.body)
		c := query(hc, url, tr, groups, true)
		if c.failure != "" || c.resp.Trace == nil {
			end()
			return nil, fmt.Errorf("traced replay: %s (trace present: %v)", c.failure, c.resp != nil && c.resp.Trace != nil)
		}
		h.rec.adopt(*c.resp.Trace, began)
		end()
		traced = append(traced, ms(c.latency))
		unattr = append(unattr, ms(c.latency-time.Duration(c.serverNS)))
		for bucket, ns := range foldSelfTimes(*c.resp.Trace, c.serverNS) {
			self[bucket] += float64(ns) / 1e6 / float64(len(prefix))
		}
	}
	mean := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	r := &replayResult{prefix: prefix, untracedP50: median(plain), metrics: map[string]float64{
		"span_total_ms":           mean(traced),
		"server_unattributed_ms":  mean(unattr),
		"obs_trace_overhead_frac": ratio(median(traced)-median(plain), median(plain)),
	}}
	for _, b := range spanBuckets {
		r.metrics["span_self_ms."+b] = self[b]
	}
	return r, nil
}
