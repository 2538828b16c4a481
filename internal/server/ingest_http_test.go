package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fastmatch/internal/cluster"
	"fastmatch/internal/ingest"
)

// ingestSpec returns a TableSpec creating a fresh live table under a
// temp dir.
func ingestSpec(t testing.TB, name string) TableSpec {
	t.Helper()
	return TableSpec{
		Name:      name,
		Path:      t.TempDir(),
		Backend:   "ingest",
		Columns:   []string{"Z", "X"},
		Measures:  []string{"m"},
		BlockSize: 64,
		SealRows:  512,
	}
}

// loadIngest loads an ingest spec and unloads it at cleanup, so the
// background compactor is stopped before TempDir removal (skipping the
// unload leaves the two racing). Tests that unload explicitly are fine:
// the second unload is a harmless not-found.
func loadIngest(t testing.TB, s *Server, name string) {
	t.Helper()
	if err := s.LoadTable(ingestSpec(t, name)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.reg.unload(name) })
}

// appendRows POSTs a JSON batch to the append endpoint.
func appendRows(t testing.TB, url, table string, rows []ingest.Row) (int, AppendResponse) {
	t.Helper()
	body, err := json.Marshal(AppendRequest{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/tables/"+table+"/rows", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out AppendResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

func genIngestRows(n, offset int) []ingest.Row {
	rows := make([]ingest.Row, n)
	for i := range rows {
		rows[i] = ingest.Row{
			Values: map[string]string{
				"Z": fmt.Sprintf("Z_%d", (offset+i)%9),
				"X": fmt.Sprintf("X_%d", (offset+i)%5),
			},
			Measures: map[string]float64{"m": float64(i % 50)},
		}
	}
	return rows
}

// scanQuery is an exact full-pass query; its IO.TuplesRead equals the
// table's row count at execution time, which pins exactly which data
// generation served the request.
func scanQuery(table string) QueryRequest {
	k := 3
	seed := int64(5)
	return QueryRequest{
		Table:   table,
		Query:   QuerySpec{Z: "Z", X: []string{"X"}},
		Target:  TargetSpec{Uniform: true},
		Options: &OptionsSpec{K: &k, Executor: "scan", Seed: &seed},
	}
}

func tuplesRead(t testing.TB, rep wireReply) int64 {
	t.Helper()
	var payload ResultPayload
	if err := json.Unmarshal(rep.Result, &payload); err != nil {
		t.Fatal(err)
	}
	return payload.IO.TuplesRead
}

func TestIngestTableEndToEnd(t *testing.T) {
	s := New(Config{EnableAdmin: true})
	loadIngest(t, s, "live")
	ts := newHTTPServer(t, s)

	// Append a first batch and query it.
	code, ack := appendRows(t, ts.URL, "live", genIngestRows(700, 0))
	if code != http.StatusOK || ack.Appended != 700 || ack.TotalRows != 700 || !ack.Synced {
		t.Fatalf("append: code %d, ack %+v", code, ack)
	}
	code, rep := postQuery(t, ts.URL, scanQuery("live"))
	if code != http.StatusOK {
		t.Fatalf("query over live table: %d", code)
	}
	if got := tuplesRead(t, rep); got != 700 {
		t.Fatalf("scan read %d tuples, want 700", got)
	}

	// Appending advances the generation: the same request must not be
	// served from the result cache computed over the old data.
	if code, _ := appendRows(t, ts.URL, "live", genIngestRows(300, 3)); code != http.StatusOK {
		t.Fatalf("second append: %d", code)
	}
	code, rep = postQuery(t, ts.URL, scanQuery("live"))
	if code != http.StatusOK || rep.Cached {
		t.Fatalf("post-append query: code %d cached %v (stale cache!)", code, rep.Cached)
	}
	if got := tuplesRead(t, rep); got != 1000 {
		t.Fatalf("scan read %d tuples, want 1000", got)
	}
	// Unchanged generation: now the cache may (and should) serve it.
	if _, rep = postQuery(t, ts.URL, scanQuery("live")); !rep.Cached {
		t.Fatal("same-generation repeat not served from result cache")
	}

	// /v1/tables reports the ingest backend and live counters.
	tables := getTables(t, ts.URL)
	info := tables["live"]
	if info.Rows != 1000 || info.Storage.Backend != "ingest" || info.Ingest == nil {
		t.Fatalf("bad table info: %+v", info)
	}
	if info.Ingest.AppendedRows != 1000 || info.Ingest.Generation < 2 {
		t.Fatalf("bad ingest stats: %+v", info.Ingest)
	}

	// /v1/stats carries append counters and ingest state.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tm := stats.Tables["live"]
	if tm.AppendRequests != 2 || tm.AppendedRows != 1000 || tm.Ingest == nil {
		t.Fatalf("bad table metrics: %+v", tm)
	}
}

func TestIngestCSVAppend(t *testing.T) {
	s := New(Config{})
	loadIngest(t, s, "live")
	ts := newHTTPServer(t, s)

	csvBody := "X,m,Z\nX_1,2.5,Z_1\nX_2,0,Z_2\nX_1,7,Z_1\n" // header order ≠ schema order
	resp, err := http.Post(ts.URL+"/v1/tables/live/rows", "text/csv", strings.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	var ack AppendResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ack.Appended != 3 || ack.TotalRows != 3 {
		t.Fatalf("CSV append: %d %+v", resp.StatusCode, ack)
	}

	// Unknown header field → 422, nothing appended.
	resp, err = http.Post(ts.URL+"/v1/tables/live/rows", "text/csv", strings.NewReader("Z,X,bogus\na,b,c\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad CSV header: %d, want 422", resp.StatusCode)
	}
}

func TestAppendErrorStatuses(t *testing.T) {
	s := New(Config{})
	loadIngest(t, s, "live")
	tbl := fixtureTable(t)
	if err := s.RegisterTable("static", tbl); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)

	if code, _ := appendRows(t, ts.URL, "nosuch", genIngestRows(1, 0)); code != http.StatusNotFound {
		t.Fatalf("append to unknown table: %d, want 404", code)
	}
	if code, _ := appendRows(t, ts.URL, "static", genIngestRows(1, 0)); code != http.StatusConflict {
		t.Fatalf("append to static table: %d, want 409", code)
	}
	bad := []ingest.Row{{Values: map[string]string{"Z": "a"}}} // missing X and m
	if code, _ := appendRows(t, ts.URL, "live", bad); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad row: want 422")
	}
	neg := genIngestRows(1, 0)
	neg[0].Measures["m"] = -3
	if code, _ := appendRows(t, ts.URL, "live", neg); code != http.StatusUnprocessableEntity {
		t.Fatalf("negative measure: want 422")
	}
}

func TestUnloadLifecycle(t *testing.T) {
	_, _, ts := newTestServer(t, Config{EnableAdmin: true})

	// Unknown table → 404.
	if code := postUnload(t, ts.URL, "nosuch"); code != http.StatusNotFound {
		t.Fatalf("unload unknown: %d, want 404", code)
	}
	// Loaded table → 200, then queries 404.
	if code := postUnload(t, ts.URL, "fixture"); code != http.StatusOK {
		t.Fatalf("unload fixture: %d, want 200", code)
	}
	if code, _ := postQuery(t, ts.URL, scanQuery("fixture")); code != http.StatusNotFound {
		t.Fatalf("query after unload: %d, want 404", code)
	}
}

func TestUnloadBusyReturns409(t *testing.T) {
	s := New(Config{EnableAdmin: true, MaxConcurrent: 2})
	tbl := fixtureTable(t)
	if err := s.RegisterTable("fixture", tbl); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)

	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookRunning = func() {
		once.Do(func() {
			close(parked)
			<-release
		})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postQuery(t, ts.URL, scanQuery("fixture"))
	}()
	<-parked
	if code := postUnload(t, ts.URL, "fixture"); code != http.StatusConflict {
		t.Fatalf("unload with query in flight: %d, want 409", code)
	}
	close(release)
	wg.Wait()
	if code := postUnload(t, ts.URL, "fixture"); code != http.StatusOK {
		t.Fatalf("unload after drain: %d, want 200", code)
	}
}

// TestUnloadReloadInvalidatesCaches reloads different data under a
// reused name and checks no stale plan/result is served (incarnation
// keying).
func TestUnloadReloadInvalidatesCaches(t *testing.T) {
	s := New(Config{EnableAdmin: true})
	loadIngest(t, s, "live")
	ts := newHTTPServer(t, s)
	appendRows(t, ts.URL, "live", genIngestRows(400, 0))
	if _, rep := postQuery(t, ts.URL, scanQuery("live")); tuplesRead(t, rep) != 400 {
		t.Fatal("priming query failed")
	}
	if code := postUnload(t, ts.URL, "live"); code != http.StatusOK {
		t.Fatalf("unload failed")
	}
	// Same name, different (fresh) directory and data volume.
	loadIngest(t, s, "live")
	appendRows(t, ts.URL, "live", genIngestRows(150, 1))
	code, rep := postQuery(t, ts.URL, scanQuery("live"))
	if code != http.StatusOK || rep.Cached {
		t.Fatalf("post-reload query: code %d cached %v", code, rep.Cached)
	}
	if got := tuplesRead(t, rep); got != 150 {
		t.Fatalf("post-reload scan read %d tuples, want 150 (stale cache across incarnations)", got)
	}
}

// TestCoordinatedCacheFollowsShardGeneration: a coordinated answer is
// cached under its shards' data generations, and the coordinator's run
// never reads them, so only that key keeps an answer over older shard
// data from being served. An append to a live shard moves its
// generation: the repeat must miss the cache and count the new rows.
func TestCoordinatedCacheFollowsShardGeneration(t *testing.T) {
	shard := New(Config{})
	loadIngest(t, shard, "live")
	shardTS := newHTTPServer(t, shard)
	coord := New(Config{})
	refs := []cluster.ShardRef{{Name: "a", URL: shardTS.URL}}
	if err := coord.reg.registerCoordinated("live", cluster.NewClient(refs), 0); err != nil {
		t.Fatal(err)
	}
	coordTS := newHTTPServer(t, coord)
	ask := func(rows int64, cached bool) {
		t.Helper()
		code, rep := postQuery(t, coordTS.URL, scanQuery("live"))
		if code != http.StatusOK || rep.Cached != cached || tuplesRead(t, rep) != rows {
			t.Fatalf("coordinated query: code %d, cached %v, %d tuples; want cached %v over %d rows",
				code, rep.Cached, tuplesRead(t, rep), cached, rows)
		}
	}
	appendRows(t, shardTS.URL, "live", genIngestRows(400, 0))
	ask(400, false)
	ask(400, true)
	appendRows(t, shardTS.URL, "live", genIngestRows(50, 400))
	ask(450, false)
	ask(450, true)
}

// TestConcurrentAppendAndQueryHTTP hammers the append and query
// endpoints together (run with -race).
func TestConcurrentAppendAndQueryHTTP(t *testing.T) {
	s := New(Config{})
	loadIngest(t, s, "live")
	ts := newHTTPServer(t, s)
	appendRows(t, ts.URL, "live", genIngestRows(600, 0))

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if code, _ := appendRows(t, ts.URL, "live", genIngestRows(100, g*1000+i)); code != http.StatusOK {
					errs <- fmt.Sprintf("append: %d", code)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				code, rep := postQuery(t, ts.URL, scanQuery("live"))
				if code != http.StatusOK {
					errs <- fmt.Sprintf("query: %d", code)
					return
				}
				if n := tuplesRead(t, rep); n < 600 || n > 3600 {
					errs <- fmt.Sprintf("scan saw %d tuples, outside [600, 3600]", n)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	code, rep := postQuery(t, ts.URL, scanQuery("live"))
	if code != http.StatusOK || tuplesRead(t, rep) != 3600 {
		t.Fatalf("final query: code %d tuples %d, want 3600", code, tuplesRead(t, rep))
	}
}

// --- small helpers shared by the ingest HTTP tests ---

func newHTTPServer(t testing.TB, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getTables(t testing.TB, url string) map[string]TableInfo {
	t.Helper()
	resp, err := http.Get(url + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr TablesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]TableInfo, len(tr.Tables))
	for _, ti := range tr.Tables {
		out[ti.Name] = ti
	}
	return out
}

func postUnload(t testing.TB, url, name string) int {
	t.Helper()
	body, _ := json.Marshal(UnloadRequest{Name: name})
	resp, err := http.Post(url+"/v1/admin/unload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
