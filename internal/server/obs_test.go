package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"fastmatch/internal/obs/trace"
)

// Observability suite: /metrics exposition, traced queries, the trace
// ring, /v1/explain, healthz build info, query IDs, and the latency
// quantile estimator.

// metricLine matches one Prometheus sample: metric name, optional
// {label="value",...} block, and a value. Comment lines are checked
// separately.
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// scrapeMetrics fetches /metrics and returns the parsed samples keyed by
// the full series identity (name{labels}).
func scrapeMetrics(t testing.TB, url string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(body)
	samples := make(map[string]float64)
	for i, line := range strings.Split(strings.TrimRight(doc, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			t.Fatalf("line %d: unexpected comment/blank line %q", i+1, line)
		}
		if !metricLine.MatchString(line) {
			t.Fatalf("line %d: malformed sample %q", i+1, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", i+1, line, err)
		}
		samples[line[:sp]] = v
	}
	return samples, doc
}

// TestMetricsExpositionParsesAndAgreesWithStats drives a few requests
// (cache miss, cache hit, a failure) and checks every /metrics line
// parses and the headline series agree with /v1/stats — same snapshots,
// same numbers.
func TestMetricsExpositionParsesAndAgreesWithStats(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})

	req := baseRequest(21, "scanmatch")
	if code, _ := postQuery(t, ts.URL, req); code != http.StatusOK {
		t.Fatalf("miss query: %d", code)
	}
	if code, rep := postQuery(t, ts.URL, req); code != http.StatusOK || !rep.Cached {
		t.Fatalf("hit query: %d cached=%v", code, rep.Cached)
	}
	bad := req
	bad.Table = "absent"
	if code, _ := postQuery(t, ts.URL, bad); code != http.StatusNotFound {
		t.Fatalf("bad query: %d", code)
	}

	samples, doc := scrapeMetrics(t, ts.URL)
	stats := getStats(t, ts.URL)
	tm := stats.Tables["fixture"]

	ok := float64(tm.Requests - tm.Errors - tm.Canceled - tm.TimedOut)
	checks := map[string]float64{
		`fastmatch_tables 1`: -1, // presence-only, value checked below
		`fastmatch_requests_total{table="fixture",outcome="ok"}`:    ok,
		`fastmatch_result_cache_hits_total{table="fixture"}`:        float64(tm.ResultCacheHits),
		`fastmatch_result_cache_misses_total{table="fixture"}`:      float64(tm.ResultCacheMisses),
		`fastmatch_plan_cache_misses_total{table="fixture"}`:        float64(tm.PlanCacheMisses),
		`fastmatch_blocks_read_total{table="fixture"}`:              float64(tm.IO.BlocksRead),
		`fastmatch_tuples_read_total{table="fixture"}`:              float64(tm.IO.TuplesRead),
		`fastmatch_samples_total{table="fixture",stage="1"}`:        float64(tm.SamplesStage1),
		`fastmatch_request_duration_seconds_count{table="fixture"}`: float64(tm.Requests),
		`fastmatch_cache_hits_total{cache="result"}`:                float64(stats.ResultCache.Hits),
		`fastmatch_cache_entries{cache="result"}`:                   float64(stats.ResultCache.Entries),
		`fastmatch_admission_in_flight`:                             0,
	}
	delete(checks, `fastmatch_tables 1`)
	if got := samples[`fastmatch_tables`]; got != 1 {
		t.Fatalf("fastmatch_tables = %g", got)
	}
	for series, want := range checks {
		got, found := samples[series]
		if !found {
			t.Fatalf("series %q absent from /metrics:\n%s", series, doc)
		}
		if got != want {
			t.Fatalf("%s = %g, /v1/stats says %g", series, got, want)
		}
	}
	if samples[`fastmatch_requests_total{table="fixture",outcome="ok"}`] < 2 {
		t.Fatal("expected at least the miss and the hit to count as ok")
	}
	// The histogram's +Inf bucket must equal its _count.
	inf := samples[`fastmatch_request_duration_seconds_bucket{table="fixture",le="+Inf"}`]
	if inf != float64(tm.Requests) {
		t.Fatalf("+Inf bucket %g != request count %d", inf, tm.Requests)
	}
	if !strings.Contains(doc, "# TYPE fastmatch_request_duration_seconds histogram\n") {
		t.Fatal("missing histogram TYPE line")
	}
	if _, found := samples[`fastmatch_build_info{version="unknown",revision="",go_version=""}`]; !found {
		// Build metadata varies by toolchain; just require the family.
		if !strings.Contains(doc, "fastmatch_build_info{") {
			t.Fatal("missing fastmatch_build_info")
		}
	}
}

// TestTracedQueryReturnsSpanTree exercises the wire contract: trace:true
// answers with a span tree whose IO sums to the result's IO, with result
// bytes identical to the untraced (and even cached) answer, and never
// marked cached.
func TestTracedQueryReturnsSpanTree(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	req := baseRequest(33, "scanmatch")

	code, plain := postQuery(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("plain query: %d", code)
	}

	req.Trace = true
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced query: %s", resp.Status)
	}
	if resp.Header.Get("X-Query-ID") == "" {
		t.Fatal("no X-Query-ID header")
	}
	var traced struct {
		Cached bool            `json:"cached"`
		Trace  *trace.Snapshot `json:"trace"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&traced); err != nil {
		t.Fatal(err)
	}
	if traced.Cached {
		t.Fatal("traced request served from cache")
	}
	if traced.Trace == nil || len(traced.Trace.Spans) == 0 {
		t.Fatal("no span tree in traced response")
	}
	if !bytes.Equal(traced.Result, plain.Result) {
		t.Fatalf("traced result bytes diverge:\n%s\nvs\n%s", traced.Result, plain.Result)
	}
	run := traced.Trace.Find("run")
	if run == nil {
		t.Fatalf("no run span: %+v", traced.Trace.Spans)
	}
	if run.Attrs["executor"] != "ScanMatch" {
		t.Fatalf("executor attr %v", run.Attrs)
	}
	var res struct {
		IO struct {
			BlocksRead int64 `json:"blocks_read"`
			TuplesRead int64 `json:"tuples_read"`
		} `json:"io"`
	}
	if err := json.Unmarshal(traced.Result, &res); err != nil {
		t.Fatal(err)
	}
	sum := traced.Trace.SumIO()
	if sum.BlocksRead != res.IO.BlocksRead || sum.TuplesRead != res.IO.TuplesRead {
		t.Fatalf("span IO sum %+v != result IO %+v", sum, res.IO)
	}
	for _, name := range []string{"decode", "admission", "plan_cache", "resolve_target"} {
		if traced.Trace.Find(name) == nil {
			t.Fatalf("missing %q span: %+v", name, traced.Trace.Spans)
		}
	}

	// The traced run produced a complete result: the NEXT untraced request
	// must be a cache hit with the same bytes.
	req.Trace = false
	code, hit := postQuery(t, ts.URL, req)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("follow-up not served from cache: %d %v", code, hit.Cached)
	}
	if !bytes.Equal(hit.Result, plain.Result) {
		t.Fatal("cached result diverges from original")
	}
}

func TestDebugTracesRingAndExplain(t *testing.T) {
	s, tbl, ts := newTestServer(t, Config{TraceRingSize: 8})
	req := baseRequest(44, "scanmatch")
	if code, _ := postQuery(t, ts.URL, req); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) == 0 {
		t.Fatal("trace ring empty after a query")
	}
	found := false
	for _, sn := range traces.Traces {
		if sn.Find("run") != nil {
			found = true
		}
		if sn.QueryID == "" {
			t.Fatal("ring trace without a query ID")
		}
	}
	if !found {
		t.Fatal("no ring trace contains a run span")
	}

	// Explain: same request body, no execution, plan facts.
	body, _ := json.Marshal(req)
	eresp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %s", eresp.Status)
	}
	var ex ExplainResponse
	if err := json.NewDecoder(eresp.Body).Decode(&ex); err != nil {
		t.Fatal(err)
	}
	if ex.Table != "fixture" || ex.Executor != "ScanMatch" {
		t.Fatalf("explain header: %+v", ex)
	}
	if ex.Plan.Rows != tbl.NumRows() || ex.Plan.Blocks != tbl.NumBlocks() {
		t.Fatalf("explain plan shape: %+v", ex.Plan)
	}
	if ex.Plan.Groups <= 0 || ex.Plan.Candidates <= 0 {
		t.Fatalf("explain resolved nothing: %+v", ex.Plan)
	}

	// Explain holds the table — and a live table's view — only while it
	// runs: afterwards nothing is in flight and the segment pins are at
	// their quiescent baseline (one per segment for the canonical list,
	// one more once the current generation's view is cached — see
	// ingest.Stats.SegmentPins; a leaked view would sit above it).
	loadIngest(t, s, "live")
	appendRows(t, ts.URL, "live", genIngestRows(700, 0))
	live := scanQuery("live")
	if code, _ := postQuery(t, ts.URL, live); code != http.StatusOK { // binds the current view
		t.Fatalf("live query: %d", code)
	}
	body, _ = json.Marshal(live)
	lresp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("live explain: %s", lresp.Status)
	}
	if st := getTables(t, ts.URL)["live"].Ingest; st.SegmentPins > 2*int64(st.Segments) {
		t.Fatalf("%d segment pins over %d segments after explain: a view leaked", st.SegmentPins, st.Segments)
	}
	for _, name := range []string{"fixture", "live"} {
		entry, _ := s.reg.acquire(name)
		if n := entry.inflight.Load(); n != 1 { // ours
			t.Fatalf("table %q: %d requests in flight after explain, want none", name, n-1)
		}
		entry.release()
	}
}

func TestHealthzBuildInfoAndReadiness(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Tables != 1 {
		t.Fatalf("healthz: %+v", h)
	}
	if h.GoVersion == "" {
		t.Fatal("no go_version in healthz")
	}
	if h.UptimeNS <= 0 {
		t.Fatal("no uptime")
	}
	if len(h.TableStatus) != 1 || h.TableStatus[0].Name != "fixture" || !h.TableStatus[0].Ready {
		t.Fatalf("table status: %+v", h.TableStatus)
	}
	if h.TableStatus[0].Rows != 20_000 {
		t.Fatalf("rows: %+v", h.TableStatus[0])
	}
}

// TestLatencyQuantileInterpolation pins the type-7 estimator: quantiles
// between order statistics interpolate linearly instead of truncating.
func TestLatencyQuantileInterpolation(t *testing.T) {
	m := newTableMetrics()
	// Four observations: 10, 20, 30, 40 ms.
	for i := 1; i <= 4; i++ {
		m.observe(time.Duration(i)*10*time.Millisecond, nil, outcomeOK, false, true)
	}
	lq := m.snapshot().LatencyMS
	if lq.Window != 4 {
		t.Fatalf("window = %d", lq.Window)
	}
	// p50 over {10,20,30,40}: pos 1.5 → 20 + 0.5*(30-20) = 25.
	if got := lq.P50; got != 25 {
		t.Fatalf("p50 = %g, want 25", got)
	}
	// p90: pos 2.7 → 30 + 0.7*10 = 37.
	if got := lq.P90; got < 36.999 || got > 37.001 {
		t.Fatalf("p90 = %g, want 37", got)
	}
	if lq.Max != 40 {
		t.Fatalf("max = %g", lq.Max)
	}
}

// TestLatencyQuantileRingWrap fills the ring past capacity and checks the
// estimator reads the whole window (not a truncated or stale slice).
func TestLatencyQuantileRingWrap(t *testing.T) {
	m := newTableMetrics()
	// 3×window observations of 5ms, then a full window of 10ms: after the
	// wrap the ring holds only 10ms values.
	for i := 0; i < 3*latencyWindow; i++ {
		m.observe(5*time.Millisecond, nil, outcomeOK, false, true)
	}
	for i := 0; i < latencyWindow; i++ {
		m.observe(10*time.Millisecond, nil, outcomeOK, false, true)
	}
	lq := m.snapshot().LatencyMS
	if lq.Window != latencyWindow {
		t.Fatalf("window = %d, want %d", lq.Window, latencyWindow)
	}
	if lq.P50 != 10 || lq.P99 != 10 || lq.Max != 10 {
		t.Fatalf("post-wrap quantiles see stale values: %+v", lq)
	}
	if m.snapshot().Requests != int64(4*latencyWindow) {
		t.Fatalf("requests = %d", m.snapshot().Requests)
	}
}

// TestMetricsAfterPredicateQueryCountsPruning mirrors the smoke script's
// assertion: a pruning-friendly query must surface nonzero
// fastmatch_blocks_pruned_total.
func TestMetricsAfterPredicateQueryCountsPruning(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	req := baseRequest(55, "scanmatch")
	req.Query = QuerySpec{
		CandidatePreds: []PredSpec{
			{Column: "Z", Value: "Z_0"},
			{Column: "Z", Value: "Z_1"},
		},
		X: []string{"X"},
	}
	code, _ := postQuery(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("predicate query: %d", code)
	}
	samples, doc := scrapeMetrics(t, ts.URL)
	stats := getStats(t, ts.URL)
	want := float64(stats.Tables["fixture"].IO.BlocksPruned)
	got := samples[`fastmatch_blocks_pruned_total{table="fixture"}`]
	if got != want {
		t.Fatalf("blocks_pruned_total = %g, stats say %g\n%s", got, want, doc)
	}
}

// TestQueryIDsAreUnique checks consecutive requests get distinct IDs.
func TestQueryIDsAreUnique(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	seen := map[string]bool{}
	req := baseRequest(66, "scanmatch")
	body, _ := json.Marshal(req)
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Query-ID")
		if len(id) != 16 {
			t.Fatalf("query id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate query id %q", id)
		}
		seen[id] = true
	}
}

// TestTraceRingOrdering checks the ring keeps the slowest traces in
// duration-descending order and respects its capacity.
func TestTraceRingOrdering(t *testing.T) {
	r := newTraceRing(3)
	mk := func(id string, d time.Duration) trace.Snapshot {
		return trace.Snapshot{QueryID: id, StartTime: time.Now(), DurationNS: d.Nanoseconds()}
	}
	r.record(mk("a", 10*time.Millisecond))
	r.record(mk("b", 30*time.Millisecond))
	r.record(mk("c", 20*time.Millisecond))
	r.record(mk("d", 5*time.Millisecond)) // too fast: ring full, rejected
	r.record(mk("e", 25*time.Millisecond))
	got := r.snapshot()
	if len(got) != 3 {
		t.Fatalf("ring holds %d", len(got))
	}
	ids := fmt.Sprintf("%s%s%s", got[0].QueryID, got[1].QueryID, got[2].QueryID)
	if ids != "bec" {
		t.Fatalf("ring order %q, want \"bec\"", ids)
	}

	if disabled := newTraceRing(-1); disabled != nil {
		disabled.record(mk("x", time.Second))
		if len(disabled.snapshot()) != 0 {
			t.Fatal("disabled ring recorded a trace")
		}
	}
}

// TestSamplingWorkersShareCacheEntry drives the same sampling query at
// workers=1 and workers=4. Sampling rounds run on the caller's goroutine,
// so workers is inert there and stays out of the fingerprint: the second
// request is a result-cache hit with byte-identical result bytes, and
// only one run executed.
func TestSamplingWorkersShareCacheEntry(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})

	one := baseRequest(55, "syncmatch")
	one.Options.Workers = intp(1)
	four := baseRequest(55, "syncmatch")
	four.Options.Workers = intp(4)

	code, repOne := postQuery(t, ts.URL, one)
	if code != http.StatusOK {
		t.Fatalf("workers=1 query: %d", code)
	}
	code, repFour := postQuery(t, ts.URL, four)
	if code != http.StatusOK {
		t.Fatalf("workers=4 query: %d", code)
	}
	if !repFour.Cached {
		t.Fatal("workers=4 missed the cache: workers must not split a sampling request's fingerprint")
	}
	if !bytes.Equal(repOne.Result, repFour.Result) {
		t.Fatalf("workers=4 result diverges from workers=1:\n%s\nvs\n%s", repFour.Result, repOne.Result)
	}
	if tm := getStats(t, ts.URL).Tables["fixture"]; tm.ResultCacheMisses != 1 || tm.ResultCacheHits != 1 {
		t.Fatalf("result cache hits/misses = %d/%d, want 1/1", tm.ResultCacheHits, tm.ResultCacheMisses)
	}
}
