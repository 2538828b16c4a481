package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"fastmatch/internal/cluster"
	"fastmatch/internal/colstore"
	"fastmatch/internal/datagen"
	"fastmatch/internal/engine"
)

// fixtureTable builds the deterministic dataset every test serves: Z (18
// candidates) × X (7 groups) plus a measure, 20k rows.
func fixtureTable(t testing.TB) *colstore.Table {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{
		Name: "fixture", Rows: 20_000, Seed: 11, Clusters: 5, BlockSize: 64,
		Columns: []datagen.ColumnSpec{
			{Name: "Z", Cardinality: 18, Skew: 0.8, ClusterConcentration: 0.5},
			{Name: "X", Cardinality: 7, Skew: 0.3, ClusterConcentration: 0.5},
		},
		Measures: []string{"M"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Table
}

// newTestServer registers the fixture table under "fixture" and returns
// the server plus an httptest frontend.
func newTestServer(t testing.TB, cfg Config) (*Server, *colstore.Table, *httptest.Server) {
	t.Helper()
	tbl := fixtureTable(t)
	s := New(cfg)
	if err := s.RegisterTable("fixture", tbl); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, tbl, ts
}

// wireReply mirrors the query response with the result kept raw for
// byte-level comparisons.
type wireReply struct {
	Table      string          `json:"table"`
	Cached     bool            `json:"cached"`
	DurationNS int64           `json:"duration_ns"`
	Result     json.RawMessage `json:"result"`
}

// postQuery sends a query request and decodes the reply.
func postQuery(t testing.TB, url string, req QueryRequest) (int, wireReply) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out wireReply
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// getStats fetches /v1/stats.
func getStats(t testing.TB, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// directPayload computes, through a fresh Engine over the same table, the
// exact result bytes the server must produce for req.
func directPayload(t testing.TB, tbl *colstore.Table, req QueryRequest) []byte {
	t.Helper()
	eng := engine.New(tbl)
	q, err := req.Query.toQuery(eng)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.DefaultOptions(tbl.NumRows())
	if err := req.Options.apply(&opts); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(q, req.Target.toTarget(), opts)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(toPayload(res))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// writeFile dumps contents to path.
func writeFile(path, contents string) error {
	return os.WriteFile(path, []byte(contents), 0o644)
}

// intp/i64p build pointer fields for OptionsSpec.
func intp(v int) *int         { return &v }
func i64p(v int64) *int64     { return &v }
func f64p(v float64) *float64 { return &v }

// baseRequest is a deterministic sampling query: fixed seed, ScanMatch
// executor (sequential sampling — bit-for-bit reproducible, unlike the
// async FastMatch executor whose lookahead marking is timing-dependent).
func baseRequest(seed int64, executor string) QueryRequest {
	return QueryRequest{
		Table:  "fixture",
		Query:  QuerySpec{Z: "Z", X: []string{"X"}},
		Target: TargetSpec{Uniform: true},
		Options: &OptionsSpec{
			K: intp(3), Epsilon: f64p(0.10), Delta: f64p(0.05), Sigma: f64p(0.002),
			Stage1Samples: intp(5000), Executor: executor, Seed: i64p(seed),
		},
	}
}

func TestServerMatchesDirectEngineRun(t *testing.T) {
	_, tbl, ts := newTestServer(t, Config{})
	for _, executor := range []string{"scan", "parallelscan", "scanmatch", "syncmatch"} {
		t.Run(executor, func(t *testing.T) {
			req := baseRequest(9, executor)
			status, reply := postQuery(t, ts.URL, req)
			if status != http.StatusOK {
				t.Fatalf("status %d", status)
			}
			want := directPayload(t, tbl, req)
			if !bytes.Equal(reply.Result, want) {
				t.Fatalf("server result differs from direct Engine.Run:\nserver: %s\ndirect: %s", reply.Result, want)
			}
			if reply.Cached {
				t.Fatal("first request must not be cached")
			}
		})
	}
}

func TestServerCandidateTargetMatchesDirect(t *testing.T) {
	_, tbl, ts := newTestServer(t, Config{})
	req := baseRequest(4, "scanmatch")
	// Target a real candidate label from the generated domain.
	col, err := tbl.Column("Z")
	if err != nil {
		t.Fatal(err)
	}
	req.Target = TargetSpec{Candidate: col.Dict.Value(0)}
	status, reply := postQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if want := directPayload(t, tbl, req); !bytes.Equal(reply.Result, want) {
		t.Fatal("candidate-target result differs from direct run")
	}
}

func TestResultCacheHitIsByteIdentical(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	req := baseRequest(3, "scanmatch")
	status, first := postQuery(t, ts.URL, req)
	if status != http.StatusOK || first.Cached {
		t.Fatalf("first: status %d cached %v", status, first.Cached)
	}
	status, second := postQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("second: status %d", status)
	}
	if !second.Cached {
		t.Fatal("second identical request must hit the result cache")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("cached result differs from live result")
	}
	st := getStats(t, ts.URL)
	if st.ResultCache.Hits < 1 {
		t.Fatalf("result cache hits = %d, want ≥ 1", st.ResultCache.Hits)
	}
	if tm := st.Tables["fixture"]; tm.ResultCacheHits < 1 {
		t.Fatalf("per-table result cache hits = %d, want ≥ 1", tm.ResultCacheHits)
	}
	// A different seed is a different run: must miss.
	if _, third := postQuery(t, ts.URL, baseRequest(4, "scanmatch")); third.Cached {
		t.Fatal("different seed must not hit the result cache")
	}
}

func TestResultCacheDistinguishesTargetPrecedence(t *testing.T) {
	// A target with both candidate and uniform set resolves as uniform
	// (ResolveTarget precedence); its cached result must never be served
	// for the candidate-only target, or vice versa.
	_, tbl, ts := newTestServer(t, Config{})
	col, err := tbl.Column("Z")
	if err != nil {
		t.Fatal(err)
	}
	label := col.Dict.Value(0)
	both := baseRequest(5, "scanmatch")
	both.Target = TargetSpec{Candidate: label, Uniform: true}
	candOnly := baseRequest(5, "scanmatch")
	candOnly.Target = TargetSpec{Candidate: label}
	uniOnly := baseRequest(5, "scanmatch")

	if status, _ := postQuery(t, ts.URL, both); status != http.StatusOK {
		t.Fatalf("both: status %d", status)
	}
	status, reply := postQuery(t, ts.URL, candOnly)
	if status != http.StatusOK {
		t.Fatalf("candidate-only: status %d", status)
	}
	if reply.Cached {
		t.Fatal("candidate-only target hit the candidate+uniform cache entry")
	}
	if want := directPayload(t, tbl, candOnly); !bytes.Equal(reply.Result, want) {
		t.Fatal("candidate-only result differs from direct run")
	}
	// candidate+uniform and uniform-only resolve identically, so they
	// legitimately share a cache entry.
	if status, reply := postQuery(t, ts.URL, uniOnly); status != http.StatusOK || !reply.Cached {
		t.Fatalf("uniform-only after candidate+uniform: status %d cached %v (want cache hit)", status, reply.Cached)
	}
}

func TestPlanCacheReusedAcrossTargets(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	for seed := int64(0); seed < 3; seed++ {
		if status, _ := postQuery(t, ts.URL, baseRequest(seed, "scanmatch")); status != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, status)
		}
	}
	st := getStats(t, ts.URL)
	if st.PlanCache.Hits < 2 {
		t.Fatalf("plan cache hits = %d, want ≥ 2 (same query shape, three runs)", st.PlanCache.Hits)
	}
	if tm := st.Tables["fixture"]; tm.PlanCacheHits < 2 || tm.PlanCacheMisses < 1 {
		t.Fatalf("per-table plan counters hits=%d misses=%d", tm.PlanCacheHits, tm.PlanCacheMisses)
	}
}

// TestConcurrentClients is the acceptance check: ≥ 32 concurrent clients
// under -race, every response byte-identical to a direct Engine.Run with
// the same seed, with nonzero plan- and result-cache hits reported.
func TestConcurrentClients(t *testing.T) {
	_, tbl, ts := newTestServer(t, Config{})
	// Four distinct request shapes; expected bytes precomputed directly.
	reqs := make([]QueryRequest, 4)
	want := make([][]byte, len(reqs))
	for i := range reqs {
		executor := "scanmatch"
		if i%2 == 1 {
			executor = "scan"
		}
		reqs[i] = baseRequest(int64(i), executor)
		want[i] = directPayload(t, tbl, reqs[i])
	}
	const clients = 32
	const perClient = 3
	var wg sync.WaitGroup
	errc := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				i := (c + j) % len(reqs)
				body, _ := json.Marshal(reqs[i])
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var reply wireReply
				err = json.NewDecoder(resp.Body).Decode(&reply)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
				if !bytes.Equal(reply.Result, want[i]) {
					errc <- fmt.Errorf("client %d request %d: result differs from direct run", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := getStats(t, ts.URL)
	if st.PlanCache.Hits == 0 {
		t.Error("plan cache reported zero hits after concurrent run")
	}
	if st.ResultCache.Hits == 0 {
		t.Error("result cache reported zero hits after concurrent run")
	}
	tm := st.Tables["fixture"]
	if tm.Requests != clients*perClient {
		t.Errorf("per-table requests = %d, want %d", tm.Requests, clients*perClient)
	}
	if tm.Errors != 0 {
		t.Errorf("per-table errors = %d, want 0", tm.Errors)
	}
	if tm.LatencyMS.Window == 0 {
		t.Error("latency quantiles empty after concurrent run")
	}
}

func TestErrorStatuses(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("{not json"); got != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d, want 400", got)
	}
	if got := post(`{"table":"nope","query":{"z":"Z","x":["X"]},"target":{"uniform":true}}`); got != http.StatusNotFound {
		t.Errorf("unknown table: %d, want 404", got)
	}
	if got := post(`{"table":"fixture","query":{"z":"NoSuchColumn","x":["X"]},"target":{"uniform":true}}`); got != http.StatusUnprocessableEntity {
		t.Errorf("unknown column: %d, want 422", got)
	}
	if got := post(`{"table":"fixture","query":{"z":"Z","x":["X"]},"target":{"uniform":true},"options":{"epsilon":-1}}`); got != http.StatusUnprocessableEntity {
		t.Errorf("invalid epsilon: %d, want 422", got)
	}
	if got := post(`{"table":"fixture","query":{"z":"Z","x":["X"]},"target":{"uniform":true},"options":{"executor":"warp"}}`); got != http.StatusUnprocessableEntity {
		t.Errorf("unknown executor: %d, want 422", got)
	}
	if got := post(`{"table":"fixture","query":{"z":"Z","x":["X"]},"target":{"candidate":"nobody"}}`); got != http.StatusUnprocessableEntity {
		t.Errorf("unknown target candidate: %d, want 422", got)
	}
	if got := post(`{"table":"fixture","query":{"z":"Z","x":["X"]},"target":{"uniform":true},"bogus":1}`); got != http.StatusBadRequest {
		t.Errorf("unknown request field: %d, want 400", got)
	}
	// Malformed requests must not crash later requests.
	if status, _ := postQuery(t, ts.URL, baseRequest(1, "scan")); status != http.StatusOK {
		t.Errorf("valid request after errors: %d, want 200", status)
	}
}

func TestTablesHealthzAndAdminGating(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Tables != 1 {
		t.Fatalf("healthz: %+v", health)
	}
	resp, err = http.Get(ts.URL + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	var tables TablesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tables); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tables.Tables) != 1 || tables.Tables[0].Name != "fixture" || tables.Tables[0].Rows != 20_000 {
		t.Fatalf("tables: %+v", tables)
	}
	if len(tables.Tables[0].Columns) != 2 {
		t.Fatalf("columns: %+v", tables.Tables[0].Columns)
	}
	// Admin is off by default.
	resp, err = http.Post(ts.URL+"/v1/admin/load", "application/json", strings.NewReader(`{"name":"x","path":"/nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("admin endpoint must be gated off by default")
	}
}

func TestSnapshotLoadedTableServesIdenticalResults(t *testing.T) {
	tbl := fixtureTable(t)
	path := t.TempDir() + "/fixture.fms"
	if err := colstore.WriteSnapshotFile(tbl, path); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.LoadTable(TableSpec{Name: "fixture", Path: path}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := baseRequest(6, "scanmatch")
	status, reply := postQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	// The snapshot preserves the block layout, so results are identical
	// to serving the in-memory table directly.
	if want := directPayload(t, tbl, req); !bytes.Equal(reply.Result, want) {
		t.Fatal("snapshot-loaded table produced different results")
	}
}

// TestMmapBackendServesIdenticalResults boots the same snapshot under
// both backends and asserts byte-identical query results plus correct
// backend reporting in /v1/tables and /v1/stats.
func TestMmapBackendServesIdenticalResults(t *testing.T) {
	tbl := fixtureTable(t)
	path := t.TempDir() + "/fixture.fms"
	if err := colstore.WriteSnapshotFile(tbl, path); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.LoadTable(TableSpec{Name: "fixture", Path: path, Backend: "mmap"}); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTable(TableSpec{Name: "heap", Path: path}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, executor := range []string{"scan", "parallelscan", "scanmatch", "syncmatch"} {
		req := baseRequest(6, executor)
		status, mmapReply := postQuery(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", executor, status)
		}
		req.Table = "heap"
		status, heapReply := postQuery(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", executor, status)
		}
		if !bytes.Equal(mmapReply.Result, heapReply.Result) {
			t.Fatalf("%s: mmap and heap backends returned different results", executor)
		}
		if want := directPayload(t, tbl, baseRequest(6, executor)); !bytes.Equal(mmapReply.Result, want) {
			t.Fatalf("%s: mmap-backed result differs from direct run", executor)
		}
	}

	for _, info := range s.Tables() {
		switch info.Name {
		case "fixture":
			if b := info.Storage.Backend; b != "mmap" && b != "mmap-fallback" {
				t.Fatalf("fixture backend %q, want mmap", b)
			}
			if b := info.Storage.Backend; b == "mmap" && info.Storage.MappedBytes == 0 {
				t.Fatal("mmap table reports zero mapped bytes")
			}
		case "heap":
			if info.Storage.Backend != "inmem" || info.Storage.HeapBytes == 0 {
				t.Fatalf("heap backend %+v", info.Storage)
			}
		}
	}
	stats := getStats(t, ts.URL)
	if got := stats.Tables["fixture"].Storage.Backend; got != "mmap" && got != "mmap-fallback" {
		t.Fatalf("/v1/stats backend %q, want mmap", got)
	}
	if stats.Tables["heap"].Storage.Backend != "inmem" {
		t.Fatalf("/v1/stats heap backend %q", stats.Tables["heap"].Storage.Backend)
	}
}

// TestBackendSpecValidation pins the error paths: csv+mmap is rejected,
// as is an unknown backend name.
func TestBackendSpecValidation(t *testing.T) {
	tbl := fixtureTable(t)
	dir := t.TempDir()
	csvPath := dir + "/fixture.csv"
	var sb strings.Builder
	if err := colstore.WriteCSV(tbl, &sb); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(csvPath, sb.String()); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.LoadTable(TableSpec{Name: "bad", Path: csvPath, Backend: "mmap"}); err == nil {
		t.Fatal("csv + mmap must be rejected")
	}
	if err := s.LoadTable(TableSpec{Name: "bad", Path: csvPath, Backend: "turbo"}); err == nil {
		t.Fatal("unknown backend must be rejected")
	}
	// A coordinated table answers exactly, so an audit fraction on one
	// would be silently ignored: it is refused instead.
	f := 1.0
	shards := []cluster.ShardRef{{Name: "a", URL: "http://127.0.0.1:1"}}
	if err := s.LoadTable(TableSpec{Name: "bad", Shards: shards, AuditFraction: &f}); !errors.Is(err, errCoordinatedAudit) {
		t.Fatalf("audit_fraction on a coordinated table: err = %v, want errCoordinatedAudit", err)
	}
	if err := s.LoadTable(TableSpec{Name: "coord", Shards: shards}); err != nil {
		t.Fatalf("coordinated table without audit_fraction: %v", err)
	}
}

func TestAdminLoadCSV(t *testing.T) {
	tbl := fixtureTable(t)
	csvPath := t.TempDir() + "/fixture.csv"
	var sb strings.Builder
	if err := colstore.WriteCSV(tbl, &sb); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(csvPath, sb.String()); err != nil {
		t.Fatal(err)
	}
	s := New(Config{EnableAdmin: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	spec := fmt.Sprintf(`{"name":"loaded","path":%q,"measures":["M"]}`, csvPath)
	resp, err := http.Post(ts.URL+"/v1/admin/load", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin load: status %d", resp.StatusCode)
	}
	req := baseRequest(1, "scanmatch")
	req.Table = "loaded"
	if status, _ := postQuery(t, ts.URL, req); status != http.StatusOK {
		t.Fatalf("query on admin-loaded table: status %d", status)
	}
	// Duplicate name must be rejected, not silently replaced.
	resp, err = http.Post(ts.URL+"/v1/admin/load", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate admin load: status %d, want 422", resp.StatusCode)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatal("b lost")
	}
	c.Put("d", 4) // evicts c (b was just used)
	if _, ok := c.Get("c"); ok {
		t.Fatal("c should have been evicted")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("recently-used b evicted")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// Disabled cache never stores.
	off := newLRUCache[string, int](-1)
	off.Put("a", 1)
	if _, ok := off.Get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}
