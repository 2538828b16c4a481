package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"fastmatch/internal/colstore"
	"fastmatch/internal/engine"
	"fastmatch/internal/server"
)

// gradeSample is how many responses per window are graded against an
// in-process engine (every response gets the structural checks).
const gradeSample = 16

// targetPool is how many distinct target candidates a workload queries.
// Latency depends on the target (resolving it scans the blocks that hold
// the candidate), so every run cycles one fixed pool in a seeded order:
// runs then differ in order and option seeds, not in which targets they
// happened to draw, and the latency median holds still across seeds.
const targetPool = 16

// dataset is a workload's generated data as both sides see it: the files
// the daemons load, and the same snapshot opened in process for the
// oracle and the layer timings.
type dataset struct {
	path       string   // unsplit snapshot
	shardPaths []string // cluster3 only
	table      *colstore.MmapTable
	eng        *engine.Engine
	// targets is the pool request targets are drawn from: targetPool
	// candidates spread evenly over the ranking by row count, from the
	// most frequent origin to the rarest one that has any rows.
	targets []string
	groups  int
	// preload holds the table as CSV append batches (ingest only).
	preload [][]byte
}

// openDataset maps the snapshot and lists its candidates.
func openDataset(path string) (*dataset, error) {
	tbl, err := colstore.OpenMmapFile(path)
	if err != nil {
		return nil, err
	}
	ds := &dataset{path: path, table: tbl, eng: engine.New(tbl)}
	z, err := tbl.ColumnByName(queryZ)
	if err != nil {
		return nil, err
	}
	x, err := tbl.ColumnByName(queryX)
	if err != nil {
		return nil, err
	}
	ds.groups = x.Cardinality()
	counts := make([]int, z.Cardinality())
	for _, c := range z.Codes(0, tbl.NumRows()) {
		counts[c]++
	}
	var present []uint32
	for code, n := range counts {
		if n > 0 {
			present = append(present, uint32(code))
		}
	}
	// Ties break by code, so the pool is a function of the data alone.
	sort.Slice(present, func(i, j int) bool {
		a, b := present[i], present[j]
		return counts[a] > counts[b] || (counts[a] == counts[b] && a < b)
	})
	for i := 0; i < targetPool; i++ {
		code := present[i*(len(present)-1)/(targetPool-1)]
		ds.targets = append(ds.targets, z.Dictionary().Value(code))
	}
	return ds, nil
}

func (ds *dataset) close() { ds.table.Close() }

// columns returns the table's categorical columns in declaration order:
// the live table's schema, and the field order of every CSV batch.
func (ds *dataset) columns() []colstore.ColumnReader {
	names := ds.table.Columns()
	cols := make([]colstore.ColumnReader, len(names))
	for i, name := range names {
		cols[i], _ = ds.table.ColumnByName(name) // a listed column exists
	}
	return cols
}

// csvBatches encodes one headered CSV append body per offset, each
// holding appendRows consecutive rows of the table.
func (ds *dataset) csvBatches(offsets []int) ([][]byte, error) {
	cols := ds.columns()
	rec := make([]string, len(cols))
	out := make([][]byte, len(offsets))
	for i, lo := range offsets {
		var buf bytes.Buffer
		cw := csv.NewWriter(&buf)
		cw.Write(ds.table.Columns())
		for r := lo; r < lo+appendRows; r++ {
			for j, c := range cols {
				rec[j] = c.Dictionary().Value(c.Code(r))
			}
			cw.Write(rec)
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// engineOptions rebuilds the engine options the daemon derives for a
// request of workload w over a table of the given size.
func engineOptions(w *workload, rows int, seed int64) engine.Options {
	opts := engine.DefaultOptions(rows)
	opts.Params.K = queryK
	if w.epsilon > 0 {
		opts.Params.Epsilon, opts.Params.Delta = w.epsilon, w.delta
	}
	switch w.executor {
	case "parallelscan":
		opts.Executor = engine.ParallelScan
	case "scan":
		opts.Executor = engine.Scan
	}
	opts.Seed = seed
	return opts
}

// checkStructure applies the cheap checks every response gets and
// decodes the body into qr. It returns why the response fails, or "".
func checkStructure(status int, body []byte, groups int, qr *queryResponse) string {
	if status != http.StatusOK {
		return fmt.Sprintf("status %d: %.200s", status, body)
	}
	if err := json.Unmarshal(body, qr); err != nil {
		return "undecodable body: " + err.Error()
	}
	res := &qr.Result
	switch {
	case qr.Degraded || len(qr.MissingShards) > 0:
		return fmt.Sprintf("degraded answer, missing shards %v", qr.MissingShards)
	case res.Partial:
		return "partial answer"
	case len(res.TopK) != queryK:
		return fmt.Sprintf("%d matches, want k=%d", len(res.TopK), queryK)
	case len(res.GroupLabels) != groups:
		return fmt.Sprintf("%d group labels, want %d", len(res.GroupLabels), groups)
	}
	for _, m := range res.TopK {
		if len(m.Histogram) != groups {
			return fmt.Sprintf("match %q has a %d-bin histogram, want %d", m.Label, len(m.Histogram), groups)
		}
	}
	return ""
}

// oracle grades responses against an in-process engine over the same
// snapshot the daemons served.
type oracle struct {
	w    *workload
	rows int
	plan *engine.Plan
}

func newOracle(w *workload, eng *engine.Engine) (*oracle, error) {
	plan, err := eng.Prepare(engine.Query{Z: queryZ, X: []string{queryX}})
	if err != nil {
		return nil, err
	}
	return &oracle{w: w, rows: eng.Source().NumRows(), plan: plan}, nil
}

// grade returns why the response to req is wrong, or "". Exact executors
// must equal an in-process Scan on ids, labels and histograms. Sampling
// answers are graded by the guarantee they claim — no returned candidate
// farther than ε beyond the true k-th — not by equality with Scan: exact
// σ-pruning drops candidates the statistical test rightly keeps.
func (o *oracle) grade(req request, got *server.ResultPayload) string {
	opts := engineOptions(o.w, o.rows, req.seed)
	target, err := o.plan.ResolveTarget(engine.Target{Candidate: req.target}, 0)
	if err != nil {
		return "oracle: " + err.Error()
	}
	if opts.Executor == engine.ParallelScan {
		opts.Executor = engine.Scan
		want, err := o.plan.RunWithTarget(target, opts)
		if err != nil {
			return "oracle: " + err.Error()
		}
		return diffExact(want, got, true)
	}
	approx := &engine.Result{Exact: got.Exact, Partial: got.Partial}
	returned := make(map[int]bool, len(got.TopK))
	for _, m := range got.TopK {
		approx.TopK = append(approx.TopK, engine.Match{ID: m.ID, Label: m.Label, Distance: m.Distance})
		returned[m.ID] = true
	}
	// The reference ranks every candidate, but the guarantee is only over
	// candidates with at least a σ share of the rows: stage 1 prunes the
	// rest on purpose. Left in, rare near neighbours of a rare target pull
	// the reference's k-th distance down and every answer looks violated
	// (engine.AuditRun does leave them in). A match's histogram total is
	// its candidate's row count.
	exact, err := o.plan.RunWithTarget(target, engine.AuditReferenceOptions(opts, o.plan.NumCandidates()))
	if err != nil {
		return "oracle: " + err.Error()
	}
	minRows := opts.Params.Sigma * float64(o.rows)
	kept := exact.TopK[:0]
	for _, m := range exact.TopK {
		if returned[m.ID] || m.Histogram.Total() >= minRows {
			kept = append(kept, m)
		}
	}
	exact.TopK = kept
	audit, err := engine.GradeAudit(approx, exact, opts.Params.Epsilon)
	if err != nil {
		return "oracle: " + err.Error()
	}
	for _, c := range audit.Candidates {
		if c.Violation {
			return fmt.Sprintf("guarantee violated: %q at exact distance %.4f, k-th best %.4f, eps %.2f",
				c.Label, c.ExactDistance, audit.ExactKthDistance, audit.Epsilon)
		}
	}
	return ""
}

// diffExact compares an exact answer with the reference. withIDs also
// pins candidate ids and group order, which only holds when both sides
// share dictionaries (a live table assigns codes in arrival order).
func diffExact(want *engine.Result, got *server.ResultPayload, withIDs bool) string {
	if len(got.TopK) != len(want.TopK) {
		return fmt.Sprintf("%d matches, reference has %d", len(got.TopK), len(want.TopK))
	}
	gotGroup := make(map[string]int, len(got.GroupLabels))
	for j, l := range got.GroupLabels {
		gotGroup[l] = j
	}
	for i, wm := range want.TopK {
		gm := got.TopK[i]
		if gm.Label != wm.Label || (withIDs && gm.ID != wm.ID) {
			return fmt.Sprintf("rank %d is %q (id %d), reference %q (id %d)", i, gm.Label, gm.ID, wm.Label, wm.ID)
		}
		// Group order can differ on a live table, and with it the order
		// distances are summed in; allow for the rounding.
		if math.Abs(gm.Distance-wm.Distance) > 1e-9 {
			return fmt.Sprintf("rank %d %q distance %v, reference %v", i, gm.Label, gm.Distance, wm.Distance)
		}
		for j, l := range want.GroupLabels {
			gj, ok := gotGroup[l]
			if !ok || (withIDs && gj != j) || gm.Histogram[gj] != wm.Histogram.Count(j) {
				return fmt.Sprintf("rank %d %q: histogram differs at group %q", i, gm.Label, l)
			}
		}
	}
	return ""
}

// expectedLiveTable rebuilds, in process, the table an ingest daemon
// must hold: the preload followed by every acked batch in order.
func (ds *dataset) expectedLiveTable(ackedOffsets []int) (*colstore.Table, error) {
	rows := ds.table.NumRows() + len(ackedOffsets)*appendRows
	cols := make([]*colstore.Column, 0, len(ds.table.Columns()))
	for _, c := range ds.columns() {
		codes := make([]uint32, 0, rows)
		codes = append(codes, c.Codes(0, ds.table.NumRows())...)
		for _, lo := range ackedOffsets {
			codes = append(codes, c.Codes(lo, lo+appendRows)...)
		}
		cols = append(cols, colstore.NewColumn(c.ColumnName(), c.Dictionary(), codes))
	}
	return colstore.NewTable(ds.table.BlockSize(), rows, cols, nil)
}

// checkLive is the ingest oracle, run after the appender has stopped:
// the daemon must report exactly the preloaded plus acked rows, and an
// exact scan over them must match the same scan over the rebuilt table.
func checkLive(hc *http.Client, url string, w *workload, ds *dataset, ackedOffsets []int, req request) string {
	var tables server.TablesResponse
	if err := getJSON(hc, url+"/v1/tables", &tables); err != nil {
		return err.Error()
	}
	want, err := ds.expectedLiveTable(ackedOffsets)
	if err != nil {
		return "oracle: " + err.Error()
	}
	if len(tables.Tables) != 1 || tables.Tables[0].Rows != want.NumRows() {
		return fmt.Sprintf("/v1/tables reports %+v, want one table of %d rows", tables.Tables, want.NumRows())
	}
	scan := *w
	scan.executor = "scan"
	final := newStream(&scan, []string{req.target}, req.seed, 0).next()
	c := query(hc, url, final, ds.groups, true)
	if c.failure != "" {
		return "final scan: " + c.failure
	}
	opts := engineOptions(w, want.NumRows(), final.seed)
	opts.Executor = engine.Scan
	ref, err := engine.New(want).Run(engine.Query{Z: queryZ, X: []string{queryX}}, engine.Target{Candidate: req.target}, opts)
	if err != nil {
		return "oracle: " + err.Error()
	}
	if diff := diffExact(ref, &c.resp.Result, false); diff != "" {
		return "final scan: " + diff
	}
	return ""
}
