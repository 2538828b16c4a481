package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
	"fastmatch/internal/ingest"
	"fastmatch/internal/server"
)

// executorPrefix is how many requests of the traced prefix the
// five-executor sweep runs: the sampling executors take hundreds of
// milliseconds a run over 20M rows, and the sweep runs seven variants.
const executorPrefix = 8

var executors = []struct {
	name string
	exec engine.Executor
}{
	{"scan", engine.Scan},
	{"parallelscan", engine.ParallelScan},
	{"scanmatch", engine.ScanMatch},
	{"syncmatch", engine.SyncMatch},
	{"fastmatch", engine.FastMatch},
}

// layerNames lists every metric measureLayers reports, so workloads that
// skip a layer still print its metrics (as zero).
func layerNames() []string {
	names := []string{
		"colstore_open_ms", "colstore_read_ns_per_row",
		"bitmap_build_ms", "bitmap_anyactive_ns",
		"engine_prepare_ms", "engine_resolve_target_ms",
		"engine_stage_ms.stage1", "engine_stage_ms.stage2", "engine_stage_ms.stage3",
		"engine_sample_fraction", "engine_rounds", "engine_blocks_skipped_frac",
		"engine_workers_speedup.parallelscan", "engine_workers_speedup.syncmatch",
		"core_merge_us", "core_batch_encode_us", "core_batch_decode_us", "core_batch_wire_bytes",
		"server_hit_us", "server_overhead_us", "server_response_bytes",
		"ingest_append_us_per_row", "ingest_view_us",
	}
	for _, e := range executors {
		names = append(names, "engine_run_ms."+e.name)
	}
	return names
}

// timed runs f under a harness span and returns how long it took.
func (h *harness) timed(name, request string, f func() error) (time.Duration, error) {
	end := h.rec.span(name, request)
	began := time.Now()
	err := f()
	took := time.Since(began)
	end()
	return took, err
}

// measureLayers opens the workload's snapshot afresh, in process, and
// times the public calls of each layer over the traced request prefix on
// one goroutine: a fixed amount of work, so the counts it reports for the
// deterministic executors repeat exactly.
func (h *harness) measureLayers(w *workload, ds *dataset, prefix []request) (map[string]float64, error) {
	defer h.rec.span("layers", w.name)()
	m := make(map[string]float64)
	for _, n := range layerNames() {
		m[n] = 0
	}

	// colstore: open the way the workload's daemon does, then walk every
	// block of the two columns the query reads.
	var src colstore.Reader
	took, err := h.timed("colstore.open", "", func() error {
		if w.backend == "inmem" {
			t, err := colstore.ReadSnapshotFile(ds.path)
			src = t
			return err
		}
		t, err := colstore.OpenMmapFile(ds.path)
		if err == nil {
			src = t
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if c, ok := src.(interface{ Close() error }); ok {
		defer c.Close()
	}
	m["colstore_open_ms"] = ms(took)
	rows := src.NumRows()

	var sink uint32
	took, err = h.timed("colstore.read", "", func() error {
		for _, name := range []string{queryZ, queryX} {
			col, err := src.ColumnByName(name)
			if err != nil {
				return err
			}
			for b := 0; b < src.NumBlocks(); b++ {
				lo, hi := src.BlockSpan(b)
				for _, c := range col.Codes(lo, hi) {
					sink += c
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	_ = sink
	m["colstore_read_ns_per_row"] = float64(took) / float64(2*rows)

	// bitmap: build the candidate column's index, then probe every block
	// for ten active candidates (the per-block AnyActive of SyncMatch).
	var ix *bitmap.Index
	took, err = h.timed("bitmap.Build", "", func() error {
		ix, err = bitmap.Build(src, queryZ)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["bitmap_build_ms"] = ms(took)
	active := make([]uint32, 0, 10)
	for v := 0; v < ix.NumValues() && len(active) < 10; v += ix.NumValues()/10 + 1 {
		active = append(active, uint32(v))
	}
	hits := 0
	took, _ = h.timed("bitmap.BlockAnyActive", "", func() error {
		for b := 0; b < ix.NumBlocks(); b++ {
			if ix.BlockAnyActive(active, b) {
				hits++
			}
		}
		return nil
	})
	m["bitmap_anyactive_ns"] = float64(took) / float64(ix.NumBlocks())

	// engine: a cold Prepare (it builds its own index), target resolution
	// for each prefix request, then every executor over the same requests.
	eng := engine.New(src)
	var plan *engine.Plan
	took, err = h.timed("engine.Prepare", "", func() error {
		plan, err = eng.Prepare(engine.Query{Z: queryZ, X: []string{queryX}})
		return err
	})
	if err != nil {
		return nil, err
	}
	m["engine_prepare_ms"] = ms(took)

	targets := make([]*histogram.Histogram, len(prefix))
	var resolve []float64
	for i, req := range prefix {
		took, err := h.timed("engine.ResolveTarget", req.target, func() error {
			targets[i], err = plan.ResolveTarget(engine.Target{Candidate: req.target}, 0)
			return err
		})
		if err != nil {
			return nil, err
		}
		resolve = append(resolve, ms(took))
	}
	m["engine_resolve_target_ms"] = median(resolve)

	n := min(executorPrefix, len(prefix))
	// sweep runs one executor variant over the first n prefix requests
	// and returns the median run time. each, when set, sees every result
	// with the elapsed time at which each phase last reported progress.
	sweep := func(exec engine.Executor, workers int, each func(*engine.Result, map[string]time.Duration)) (float64, error) {
		var times []float64
		for i := 0; i < n; i++ {
			opts := engineOptions(w, rows, prefix[i].seed)
			opts.Executor, opts.Workers = exec, workers
			phaseEnd := map[string]time.Duration{}
			if each != nil {
				opts.OnProgress = func(p engine.Progress) { phaseEnd[p.Phase] = p.Elapsed }
			}
			var res *engine.Result
			took, err := h.timed("engine.Run."+exec.String(), prefix[i].target, func() error {
				res, err = plan.RunWithTargetContext(context.Background(), targets[i], opts)
				return err
			})
			if err != nil {
				return 0, err
			}
			times = append(times, ms(took))
			if each != nil {
				each(res, phaseEnd)
			}
		}
		return median(times), nil
	}
	stages := []string{"stage1", "stage2", "stage3"}
	for _, e := range executors {
		var each func(*engine.Result, map[string]time.Duration)
		var stage [3][]float64
		var fraction, rounds, skipped []float64
		if e.exec == engine.FastMatch {
			each = func(res *engine.Result, phaseEnd map[string]time.Duration) {
				// A stage the run never entered (stage 1 can settle it) has
				// no progress frame and counts as zero.
				prev := time.Duration(0)
				for s, name := range stages {
					d := time.Duration(0)
					if end, ok := phaseEnd[name]; ok {
						d, prev = end-prev, end
					}
					stage[s] = append(stage[s], ms(d))
				}
				fraction = append(fraction, float64(res.IO.TuplesRead)/float64(rows))
				rounds = append(rounds, float64(res.Stats.Rounds))
				skipped = append(skipped, ratio(float64(res.IO.BlocksSkipped), float64(res.IO.BlocksRead+res.IO.BlocksSkipped)))
			}
		}
		if m["engine_run_ms."+e.name], err = sweep(e.exec, 0, each); err != nil {
			return nil, err
		}
		if each != nil {
			for s, name := range stages {
				m["engine_stage_ms."+name] = median(stage[s])
			}
			m["engine_sample_fraction"] = median(fraction)
			m["engine_rounds"] = median(rounds)
			m["engine_blocks_skipped_frac"] = median(skipped)
		}
		// What the second worker buys: one exact and one sampling executor
		// again on a single worker.
		if e.exec == engine.ParallelScan || e.exec == engine.SyncMatch {
			one, err := sweep(e.exec, 1, nil)
			if err != nil {
				return nil, err
			}
			m["engine_workers_speedup."+e.name] = ratio(one, m["engine_run_ms."+e.name])
		}
	}

	if err := h.measureCore(plan, m); err != nil {
		return nil, err
	}
	if err := h.measureServer(src, ds.groups, prefix, m); err != nil {
		return nil, err
	}
	if w.topology == "ingest" {
		if err := h.measureIngest(ds, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// measureCore times the merge algebra and its wire format on real
// partials: the mergeable batch an exact shard segment over this table
// returns to a coordinator.
func (h *harness) measureCore(plan *engine.Plan, m map[string]float64) error {
	seg, err := plan.RunShardSegment(context.Background(), &engine.ShardSegment{Kind: engine.SegScan, Executor: engine.ParallelScan})
	if err != nil {
		return err
	}
	m["core_batch_wire_bytes"] = float64(len(seg.Batch))
	var merge, encode, decode []float64
	for i := 0; i < 21; i++ {
		var a, b *core.Batch
		took, err := h.timed("core.DecodeBatch", "", func() error {
			a, err = core.DecodeBatch(seg.Batch)
			return err
		})
		if err != nil {
			return err
		}
		decode = append(decode, us(took))
		if b, err = core.DecodeBatch(seg.Batch); err != nil {
			return err
		}
		took, err = h.timed("core.Batch.Merge", "", func() error { return a.Merge(b) })
		if err != nil {
			return err
		}
		merge = append(merge, us(took))
		took, _ = h.timed("core.EncodeBatch", "", func() error { core.EncodeBatch(a); return nil })
		encode = append(encode, us(took))
	}
	m["core_merge_us"], m["core_batch_encode_us"], m["core_batch_decode_us"] = median(merge), median(encode), median(decode)
	return nil
}

// withTrace returns the request body with "trace": true set.
func withTrace(body []byte) []byte {
	var qr server.QueryRequest
	if err := json.Unmarshal(body, &qr); err != nil {
		panic(err) // body was produced by stream.build
	}
	qr.Trace = true
	out, _ := json.Marshal(qr)
	return out
}

// measureServer drives the HTTP handler in process, without a socket:
// each prefix request once traced (a result-cache miss whose engine spans
// are subtracted to leave the handler's own overhead), then again plain
// (a hit on the payload the traced run published).
func (h *harness) measureServer(src colstore.Reader, groups int, prefix []request, m map[string]float64) error {
	srv := server.New(server.Config{})
	if err := srv.RegisterTable(tableName, src); err != nil {
		return err
	}
	handler := srv.Handler()
	serve := func(name string, body []byte) (time.Duration, *httptest.ResponseRecorder) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(string(body)))
		took, _ := h.timed(name, "", func() error { handler.ServeHTTP(rec, req); return nil })
		return took, rec
	}
	var overhead, hit, size []float64
	for _, req := range prefix {
		took, rec := serve("server.miss", withTrace(req.body))
		var qr queryResponse
		if fail := checkStructure(rec.Code, rec.Body.Bytes(), groups, &qr); fail != "" {
			return fmt.Errorf("in-process handler: %s", fail)
		}
		if qr.Trace == nil {
			return fmt.Errorf("in-process handler returned no trace")
		}
		engineNS := int64(0)
		for _, name := range []string{"resolve_target", "run"} {
			if sp := qr.Trace.Find(name); sp != nil {
				engineNS += sp.DurationNS
			}
		}
		overhead = append(overhead, us(took-time.Duration(engineNS)))
		took, rec = serve("server.hit", req.body)
		if !strings.Contains(rec.Body.String(), `"cached":true`) {
			return fmt.Errorf("in-process handler: repeat of a traced request missed the result cache")
		}
		hit = append(hit, us(took))
		size = append(size, float64(rec.Body.Len()))
	}
	m["server_overhead_us"], m["server_hit_us"], m["server_response_bytes"] = median(overhead), median(hit), median(size)
	return nil
}

// measureIngest times the write side in process, at the default fsync
// policy: 50 appends of appendRows rows, each followed by the View a
// query of the new generation would take.
func (h *harness) measureIngest(ds *dataset, m map[string]float64) error {
	dir, err := os.MkdirTemp(h.runDir, "ingest-layer-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wt, err := ingest.Open(dir, ingest.Schema{Columns: ds.table.Columns()}, ingest.Options{})
	if err != nil {
		return err
	}
	defer wt.Close()
	cols := ds.columns()
	var appendUS, viewUS []float64
	for b := 0; b < 50; b++ {
		batch := make([]ingest.Row, appendRows)
		for r := range batch {
			vals := make(map[string]string, len(cols))
			for _, c := range cols {
				vals[c.ColumnName()] = c.Dictionary().Value(c.Code(b*appendRows + r))
			}
			batch[r] = ingest.Row{Values: vals}
		}
		took, err := h.timed("ingest.Append", "", func() error { _, err := wt.Append(batch); return err })
		if err != nil {
			return err
		}
		appendUS = append(appendUS, us(took)/appendRows)
		took, err = h.timed("ingest.View", "", func() error {
			v, err := wt.View()
			if err == nil {
				v.Release()
			}
			return err
		})
		if err != nil {
			return err
		}
		viewUS = append(viewUS, us(took))
	}
	m["ingest_append_us_per_row"], m["ingest_view_us"] = median(appendUS), median(viewUS)
	return nil
}
