package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fastmatch/internal/cluster"
	"fastmatch/internal/colstore"
	"fastmatch/internal/engine"
)

// clusterReply extends wireReply with the coordinated-table fields.
type clusterReply struct {
	Table         string                `json:"table"`
	Cached        bool                  `json:"cached"`
	Shards        []cluster.ShardStatus `json:"shards"`
	MissingShards []string              `json:"missing_shards"`
	Degraded      bool                  `json:"degraded"`
	Result        json.RawMessage       `json:"result"`
}

// clusterFixture is a 3-shard cluster and a single-node control, both
// serving the same fixture data over real HTTP.
type clusterFixture struct {
	coord     *Server
	coordTS   *httptest.Server
	singleSrv *Server
	single    *httptest.Server
	shards    []*httptest.Server
	// shardReads counts each shard table's block reads (slow fixtures
	// only).
	shardReads []*countingReader
}

// countingReader counts BlockSpan calls, the one call every executor
// makes per block it reads.
type countingReader struct {
	colstore.Reader
	spans atomic.Int64
}

func (c *countingReader) BlockSpan(b int) (lo, hi int) {
	c.spans.Add(1)
	return c.Reader.BlockSpan(b)
}

// BlockStats forwards the wrapped reader's statistics, so pruning is
// unchanged by the count.
func (c *countingReader) BlockStats() colstore.BlockStats {
	if br, ok := c.Reader.(colstore.BlockStatsReader); ok {
		return br.BlockStats()
	}
	return nil
}

// shardBlockReads sums the block reads of every shard table.
func (fx *clusterFixture) shardBlockReads() int64 {
	var n int64
	for _, c := range fx.shardReads {
		n += c.spans.Load()
	}
	return n
}

// newClusterFixture splits the fixture table into n block-aligned shards,
// serves each from its own HTTP daemon, and fronts them with a
// coordinator; a single node serving the unsplit table is the control.
func newClusterFixture(t testing.TB, n int, cfg Config) *clusterFixture {
	return newSlowClusterFixture(t, n, cfg, 0, 0)
}

// newSlowClusterFixture is newClusterFixture with every data-serving
// table throttled to perBlock per block access (the unsplit table's ~320
// blocks at 1ms make a full scan ≥300ms, so tests can reliably interrupt
// mid-run) and the coordinated and control tables given a per-table
// query timeout. cfg configures the coordinator and the control alike.
// Each throttled shard table also counts its block reads (shardReads).
func newSlowClusterFixture(t testing.TB, n int, cfg Config, perBlock, timeout time.Duration) *clusterFixture {
	t.Helper()
	tbl := fixtureTable(t)
	parts, err := colstore.ShardTables(tbl, n)
	if err != nil {
		t.Fatal(err)
	}
	fx := &clusterFixture{}
	refs := make([]cluster.ShardRef, n)
	for i, part := range parts {
		src := colstore.NewThrottledReader(part, perBlock)
		if perBlock > 0 {
			cr := &countingReader{Reader: src}
			fx.shardReads = append(fx.shardReads, cr)
			src = cr
		}
		ss := New(Config{})
		if err := ss.RegisterTable("fixture", src); err != nil {
			t.Fatal(err)
		}
		ts := newHTTPServer(t, ss)
		fx.shards = append(fx.shards, ts)
		refs[i] = cluster.ShardRef{Name: shardName(i), URL: ts.URL}
	}
	fx.coord = New(cfg)
	if err := fx.coord.reg.registerCoordinated("fixture", cluster.NewClient(refs), timeout); err != nil {
		t.Fatal(err)
	}
	fx.coordTS = newHTTPServer(t, fx.coord)
	fx.singleSrv = New(cfg)
	if err := fx.singleSrv.reg.register("fixture", "(in-memory)", colstore.NewThrottledReader(tbl, perBlock), timeout, nil); err != nil {
		t.Fatal(err)
	}
	fx.single = newHTTPServer(t, fx.singleSrv)
	return fx
}

func shardName(i int) string { return string(rune('a' + i)) }

func postClusterQuery(t testing.TB, url string, req QueryRequest) (int, clusterReply) {
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
	var out clusterReply
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// TestCoordinatedHTTPByteIdentical proves the serving-layer contract:
// whatever executor is requested, a coordinated answer's result bytes —
// blocking, streamed, and cached — are byte-identical to a single node
// running parallelscan over the unsplit table.
func TestCoordinatedHTTPByteIdentical(t *testing.T) {
	fx := newClusterFixture(t, 3, Config{})
	seed := int64(11)
	queryWith := func(exec string) QueryRequest {
		return QueryRequest{
			Table:   "fixture",
			Query:   QuerySpec{Z: "Z", X: []string{"X"}},
			Target:  TargetSpec{Uniform: true},
			Options: &OptionsSpec{Executor: exec, Seed: &seed},
		}
	}
	status, single := postQuery(t, fx.single.URL, queryWith("parallelscan"))
	if status != http.StatusOK {
		t.Fatalf("single node status %d", status)
	}
	for i, exec := range []string{"scan", "scanmatch", "syncmatch", "fastmatch", "parallelscan"} {
		req := queryWith(exec)
		status, coord := postClusterQuery(t, fx.coordTS.URL, req)
		if status != http.StatusOK {
			t.Fatalf("%s: coordinator status %d", exec, status)
		}
		if !bytes.Equal(coord.Result, single.Result) {
			t.Errorf("%s: coordinated result differs from single node\ncoord:  %s\nsingle: %s",
				exec, coord.Result, single.Result)
		}
		if coord.Degraded || len(coord.MissingShards) != 0 {
			t.Errorf("%s: healthy cluster reported degraded=%v missing=%v", exec, coord.Degraded, coord.MissingShards)
		}
		// Every executor runs as the same exact scan, so the result cache
		// keys them alike: only the first request runs (and reports shard
		// statuses); the rest are hits on its entry.
		if i == 0 {
			if coord.Cached || len(coord.Shards) != 3 {
				t.Errorf("%s: cached=%v with %d shard statuses, want a live run over 3 shards", exec, coord.Cached, len(coord.Shards))
			}
		} else if !coord.Cached {
			t.Errorf("%s: not a result-cache hit, though it runs the same scan as scan", exec)
		}

		// Streaming endpoint: the terminal frame's result bytes match too.
		body, _ := json.Marshal(req)
		resp, err := http.Post(fx.coordTS.URL+"/v1/query/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var last StreamFrame
		frames := 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				t.Fatalf("%s: bad stream frame: %v", exec, err)
			}
			frames++
		}
		resp.Body.Close()
		if last.Type != "result" {
			t.Fatalf("%s: stream ended with %q frame after %d frames (error %q)", exec, last.Type, frames, last.Error)
		}
		if !bytes.Equal(last.Result, single.Result) {
			t.Errorf("%s: streamed coordinated result differs from single node", exec)
		}
	}
}

// TestCoordinatedHTTPShardLoss kills one shard daemon and asserts the
// degraded-but-honest contract end to end: HTTP 200, partial flagged,
// the missing shard named, and the failure visible in /v1/stats.
func TestCoordinatedHTTPShardLoss(t *testing.T) {
	fx := newClusterFixture(t, 3, Config{})
	fx.shards[1].Close()

	seed := int64(7)
	req := QueryRequest{
		Table:   "fixture",
		Query:   QuerySpec{Z: "Z", X: []string{"X"}},
		Target:  TargetSpec{Uniform: true},
		Options: &OptionsSpec{Executor: "scan", Seed: &seed},
	}
	status, rep := postClusterQuery(t, fx.coordTS.URL, req)
	if status != http.StatusOK {
		t.Fatalf("shard loss must degrade, not fail: status %d", status)
	}
	if !rep.Degraded {
		t.Fatal("want degraded=true with a dead shard")
	}
	if len(rep.MissingShards) != 1 || rep.MissingShards[0] != shardName(1) {
		t.Fatalf("want missing_shards [%q], got %v", shardName(1), rep.MissingShards)
	}
	var payload ResultPayload
	if err := json.Unmarshal(rep.Result, &payload); err != nil {
		t.Fatal(err)
	}
	if !payload.Partial || payload.Exact {
		t.Fatalf("degraded answer must be partial and not exact, got partial=%v exact=%v",
			payload.Partial, payload.Exact)
	}

	stats := getStats(t, fx.coordTS.URL)
	tm, ok := stats.Tables["fixture"]
	if !ok {
		t.Fatal("coordinator stats missing table")
	}
	if len(tm.Shards) != 3 {
		t.Fatalf("want 3 shard stats, got %d", len(tm.Shards))
	}
	var deadErrs int64
	for _, sc := range tm.Shards {
		if sc.Name == shardName(1) {
			deadErrs = sc.Errors
			if sc.Healthy {
				t.Error("dead shard reported healthy")
			}
			if sc.LastError == "" {
				t.Error("dead shard has no last_error")
			}
		} else if sc.Errors != 0 {
			t.Errorf("healthy shard %s has %d errors", sc.Name, sc.Errors)
		}
	}
	if deadErrs == 0 {
		t.Error("dead shard has no error count")
	}

	// Degraded answers are never cached: the repeat must not be a hit.
	if _, rep2 := postClusterQuery(t, fx.coordTS.URL, req); rep2.Cached {
		t.Error("degraded answer was served from cache")
	}
}

// TestCoordinatedHTTPAudit: a coordinated table answers exactly, so even
// with every answer selected for auditing (AuditFraction 1) a fastmatch
// request comes back exact and nothing is audited — the audit counters
// and /v1/debug/quality do not move.
func TestCoordinatedHTTPAudit(t *testing.T) {
	fx := newClusterFixture(t, 2, Config{AuditFraction: 1})
	seed := int64(3)
	req := QueryRequest{
		Table:   "fixture",
		Query:   QuerySpec{Z: "Z", X: []string{"X"}},
		Target:  TargetSpec{Uniform: true},
		Options: &OptionsSpec{Executor: "fastmatch", Seed: &seed},
	}
	status, rep := postClusterQuery(t, fx.coordTS.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var payload ResultPayload
	if err := json.Unmarshal(rep.Result, &payload); err != nil {
		t.Fatal(err)
	}
	if !payload.Exact || payload.Partial {
		t.Fatalf("coordinated fastmatch answer: exact=%v partial=%v, want an exact answer", payload.Exact, payload.Partial)
	}
	fx.coord.auditWG.Wait()
	tm := getStats(t, fx.coordTS.URL).Tables["fixture"]
	if tm.AuditRuns != 0 || tm.AuditErrors != 0 {
		t.Fatalf("exact coordinated answer was audited: runs=%d errors=%d", tm.AuditRuns, tm.AuditErrors)
	}
	if ql := getQualityLog(t, fx.coordTS.URL); len(ql.Queries) != 0 {
		t.Fatalf("/v1/debug/quality recorded %d entries for an exact coordinated answer", len(ql.Queries))
	}
}

// TestInternalPartialGuards covers the shard-internal endpoint's refusal
// paths: unknown tables 404, coordinated tables 400 (a coordinator is
// not a shard), unknown ops 400, and segment kinds other than the exact
// scan and target passes 422.
func TestInternalPartialGuards(t *testing.T) {
	fx := newClusterFixture(t, 2, Config{})
	post := func(url string, preq cluster.PartialRequest) int {
		t.Helper()
		body, _ := json.Marshal(preq)
		resp, err := http.Post(url+"/v1/internal/partial", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	rawQ := json.RawMessage(`{"z":"Z","x":["X"]}`)
	if got := post(fx.shards[0].URL, cluster.PartialRequest{Table: "nope", Query: rawQ, Op: "meta"}); got != http.StatusNotFound {
		t.Errorf("unknown table: want 404, got %d", got)
	}
	if got := post(fx.coordTS.URL, cluster.PartialRequest{Table: "fixture", Query: rawQ, Op: "meta"}); got != http.StatusBadRequest {
		t.Errorf("coordinated table: want 400, got %d", got)
	}
	if got := post(fx.shards[0].URL, cluster.PartialRequest{Table: "fixture", Query: rawQ, Op: "nope"}); got != http.StatusBadRequest {
		t.Errorf("unknown op: want 400, got %d", got)
	}
	if got := post(fx.shards[0].URL, cluster.PartialRequest{Table: "fixture", Query: rawQ, Op: "meta"}); got != http.StatusOK {
		t.Errorf("meta on a shard: want 200, got %d", got)
	}
	for _, kind := range []engine.SegmentKind{"stage1", "round"} {
		seg := &engine.ShardSegment{Kind: kind, Executor: engine.SyncMatch}
		if got := post(fx.shards[0].URL, cluster.PartialRequest{Table: "fixture", Query: rawQ, Op: "segment", Segment: seg}); got != http.StatusUnprocessableEntity {
			t.Errorf("segment kind %q: want 422, got %d", kind, got)
		}
	}
	seg := &engine.ShardSegment{Kind: engine.SegScan, Executor: engine.ParallelScan}
	if got := post(fx.shards[0].URL, cluster.PartialRequest{Table: "fixture", Query: rawQ, Op: "segment", Segment: seg}); got != http.StatusOK {
		t.Errorf("scan segment on a shard: want 200, got %d", got)
	}
}

// TestCoordinatedTimeoutStopsShards checks that a coordinated query cut
// short by its table timeout stops its shards too. Segments carry no
// deadline, so the coordinator's canceled HTTP calls are the only signal
// a shard gets: once the partial answer is back, the shards' block reads
// must stop growing within 100 ms, short of a full scan.
func TestCoordinatedTimeoutStopsShards(t *testing.T) {
	fx := newSlowClusterFixture(t, 3, Config{}, time.Millisecond, 80*time.Millisecond)
	req := baseRequest(35, "scan")
	// One worker per shard keeps each shard's ~105 throttled blocks
	// (≥ 105 ms) past the timeout.
	req.Options.Workers = intp(1)
	// Prime the shards' plans (their index builds pay the throttle too
	// and are not canceled), then wait for every read to settle.
	primeSlow(t, pipelineCell{coordinated: true}, fx.coordTS.URL, req)
	settled := func() int64 {
		t.Helper()
		last := fx.shardBlockReads()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			time.Sleep(100 * time.Millisecond)
			n := fx.shardBlockReads()
			if n == last {
				return n
			}
			last = n
		}
		t.Fatal("shard block reads never settled")
		return 0
	}
	before := settled()

	req.Options.Seed = i64p(36) // a new result-cache key
	status, rep := postClusterQuery(t, fx.coordTS.URL, req)
	if status != http.StatusOK {
		t.Fatalf("timed-out query status %d, want 200 + partial result", status)
	}
	var p ResultPayload
	if err := json.Unmarshal(rep.Result, &p); err != nil {
		t.Fatal(err)
	}
	if !p.Partial {
		t.Fatal("timed-out coordinated query not flagged partial")
	}
	time.Sleep(100 * time.Millisecond)
	stopped := fx.shardBlockReads()
	time.Sleep(200 * time.Millisecond)
	if after := fx.shardBlockReads(); after != stopped {
		t.Fatalf("shards kept reading after the answer: %d blocks at +100 ms, %d at +300 ms", stopped-before, after-before)
	}
	var blocks int64
	for _, c := range fx.shardReads {
		blocks += int64(c.NumBlocks())
	}
	if read := stopped - before; read <= 0 || read >= blocks {
		t.Fatalf("shards read %d of %d blocks for the timed-out query, want a stop mid-scan", read, blocks)
	}
}
