package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fastmatch/internal/cluster"
)

// The query pipeline has two seams — the runner (local engine |
// coordinated scatter-gather) and the sink (blocking JSON | NDJSON
// stream) — and a contract that holds in every cell of their product.
// TestPipelineMatrix checks it cell by cell; the client-disconnect row
// lives in progressive_test.go (its mechanics differ per sink).

// pipelineCell names one runner × sink combination.
type pipelineCell struct {
	coordinated, stream bool
}

func (c pipelineCell) String() string {
	name := "local"
	if c.coordinated {
		name = "coordinated"
	}
	if c.stream {
		return name + "/stream"
	}
	return name + "/blocking"
}

var pipelineCells = []pipelineCell{{false, false}, {false, true}, {true, false}, {true, true}}

// server returns the daemon a cell's requests go to: the coordinator or
// the single-node control.
func (fx *clusterFixture) server(c pipelineCell) (*Server, string) {
	if c.coordinated {
		return fx.coord, fx.coordTS.URL
	}
	return fx.singleSrv, fx.single.URL
}

// cellReply is a query answer as either sink delivered it: the terminal
// body (the blocking response, or the stream's last frame) plus, for a
// stream, every frame.
type cellReply struct {
	status int
	header http.Header
	frames []StreamFrame
	clusterReply
}

func (r cellReply) payload(t testing.TB) ResultPayload {
	t.Helper()
	var p ResultPayload
	if err := json.Unmarshal(r.Result, &p); err != nil {
		t.Fatalf("decoding result payload %q: %v", r.Result, err)
	}
	return p
}

// ask sends req through the cell's sink. Any non-200 status is returned
// undecoded; a stream that answers 200 must end in a result frame.
func ask(t testing.TB, c pipelineCell, url string, req QueryRequest) cellReply {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	path := "/v1/query"
	if c.stream {
		path = "/v1/query/stream"
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := cellReply{status: resp.StatusCode, header: resp.Header}
	if resp.StatusCode != http.StatusOK {
		return out
	}
	if !c.stream {
		if err := json.NewDecoder(resp.Body).Decode(&out.clusterReply); err != nil {
			t.Fatal(err)
		}
		return out
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		out.frames = append(out.frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out.frames) < 2 || out.frames[0].Progress == nil || out.frames[0].Progress.Phase != "start" {
		t.Fatalf("stream must open with a start frame and end with a terminal one: %+v", out.frames)
	}
	if out.frames[0].QueryID == "" || out.frames[0].QueryID != resp.Header.Get("X-Query-ID") {
		t.Fatalf("start frame query_id %q, X-Query-ID %q", out.frames[0].QueryID, resp.Header.Get("X-Query-ID"))
	}
	last := out.frames[len(out.frames)-1]
	if last.Type != "result" {
		t.Fatalf("stream ended with a %q frame (error %q)", last.Type, last.Error)
	}
	out.clusterReply = clusterReply{
		Table: last.Table, Cached: last.Cached, Shards: last.Shards,
		MissingShards: last.MissingShards, Degraded: last.Degraded, Result: last.Result,
	}
	return out
}

// primeSlow runs req until the cell answers 200. On a throttled fixture
// planning (the bitmap-index build, a full block sweep that pays the
// simulated latency too) is shared and not cancellable, so under a table
// timeout the first requests' budgets can die inside it — 504 with
// nothing, or 503 while every shard is still planning its meta — while
// still priming the plan caches for everyone after.
func primeSlow(t testing.TB, c pipelineCell, url string, req QueryRequest) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		rep := ask(t, c, url, req)
		if rep.status == http.StatusOK {
			return
		}
		if rep.status != http.StatusGatewayTimeout && rep.status != http.StatusServiceUnavailable {
			t.Fatalf("priming query status %d", rep.status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow fixture never primed (last status %d)", rep.status)
		}
	}
}

func TestPipelineMatrix(t *testing.T) {
	// Every cell gets its own fixture, so each starts with cold caches.
	eachCell := func(t *testing.T, row string, fn func(t *testing.T, c pipelineCell)) {
		t.Run(row, func(t *testing.T) {
			for _, c := range pipelineCells {
				t.Run(c.String(), func(t *testing.T) { fn(t, c) })
			}
		})
	}

	// One payload per runner, whatever the sink or the cache: the live
	// answer and its cache hit are byte-identical to a direct engine run
	// — of the requested executor locally, of parallelscan on a
	// coordinated table, which answers every query exactly — and a cached
	// stream keeps the start-frame-then-result shape.
	bytesReq := baseRequest(21, "scanmatch")
	wantLocal := directPayload(t, fixtureTable(t), bytesReq)
	wantCoord := directPayload(t, fixtureTable(t), baseRequest(21, "parallelscan"))
	eachCell(t, "bytes", func(t *testing.T, c pipelineCell) {
		_, url := newClusterFixture(t, 3, Config{}).server(c)
		want := wantLocal
		if c.coordinated {
			want = wantCoord
		}
		live := ask(t, c, url, bytesReq)
		if live.status != http.StatusOK || live.Cached {
			t.Fatalf("live: status %d cached %v", live.status, live.Cached)
		}
		if !bytes.Equal(live.Result, want) {
			t.Fatalf("live result differs from direct engine run:\n%s\nvs\n%s", live.Result, want)
		}
		if live.header.Get("X-Query-ID") == "" {
			t.Fatal("no X-Query-ID")
		}
		wantShards := 0 // a local run reports none
		if c.coordinated {
			wantShards = 3
		}
		if len(live.Shards) != wantShards || live.Degraded {
			t.Fatalf("shards %+v degraded %v, want %d healthy statuses", live.Shards, live.Degraded, wantShards)
		}
		if c.stream {
			if len(live.frames) < 3 {
				t.Fatalf("live stream carried %d frames, want start + rounds + result", len(live.frames))
			}
			for i, f := range live.frames[:len(live.frames)-1] {
				if f.Type != "progress" || f.Progress == nil {
					t.Fatalf("frame %d: %+v, want progress", i, f)
				}
			}
		}
		hit := ask(t, c, url, bytesReq)
		if hit.status != http.StatusOK || !hit.Cached {
			t.Fatalf("repeat: status %d cached %v, want a result-cache hit", hit.status, hit.Cached)
		}
		if !bytes.Equal(hit.Result, want) {
			t.Fatal("cached result differs from the live one")
		}
		if c.stream && len(hit.frames) != 2 {
			t.Fatalf("cached stream carried %d frames, want start + result", len(hit.frames))
		}
	})

	// The table's query timeout cuts a run short: 200 with the best-effort
	// partial answer, counted as timed out, never cached.
	eachCell(t, "timeout", func(t *testing.T, c pipelineCell) {
		_, url := newSlowClusterFixture(t, 3, Config{}, time.Millisecond, 80*time.Millisecond).server(c)
		req := baseRequest(33, "scan")
		// One worker per shard keeps a coordinated scan (~107 throttled
		// blocks per shard) past the timeout however many cores run it.
		req.Options.Workers = intp(1)
		primeSlow(t, c, url, req)
		rep := ask(t, c, url, req)
		if rep.status != http.StatusOK {
			t.Fatalf("timed-out query status %d, want 200 + partial result", rep.status)
		}
		p := rep.payload(t)
		if !p.Partial || p.Exact {
			t.Fatalf("payload partial=%v exact=%v, want best-effort partial", p.Partial, p.Exact)
		}
		// A local scan stops mid-run; a coordinated one loses whole
		// segments (shards scan concurrently), possibly all of them.
		if p.IO.TuplesRead >= 20_000 || (!c.coordinated && p.IO.TuplesRead == 0) {
			t.Fatalf("partial scan read %d tuples, want mid-run stop", p.IO.TuplesRead)
		}
		if st := getStats(t, url).Tables["fixture"]; st.TimedOut < 1 || st.PartialResults < 1 {
			t.Fatalf("timeout counters: %+v", st)
		}
		if rep = ask(t, c, url, req); rep.status != http.StatusOK || rep.Cached {
			t.Fatalf("repeat: status %d cached %v; partial results must not be cached", rep.status, rep.Cached)
		}
	})

	// A row budget does the same without a clock, and lands on the same
	// block — hence the same bytes — in every cell.
	var budgeted []byte
	eachCell(t, "row_budget", func(t *testing.T, c pipelineCell) {
		_, url := newClusterFixture(t, 3, Config{}).server(c)
		req := baseRequest(34, "scan")
		budget := int64(2_000)
		req.Options.RowBudget = &budget
		rep := ask(t, c, url, req)
		if rep.status != http.StatusOK {
			t.Fatalf("budgeted query status %d", rep.status)
		}
		p := rep.payload(t)
		if !p.Partial {
			t.Fatal("budgeted run not flagged partial")
		}
		if p.IO.TuplesRead < budget || p.IO.TuplesRead > budget+1_000 {
			t.Fatalf("budget enforcement: read %d tuples for budget %d", p.IO.TuplesRead, budget)
		}
		if budgeted == nil {
			budgeted = rep.Result
		} else if !bytes.Equal(rep.Result, budgeted) {
			t.Fatalf("budgeted result differs from the first cell's:\n%s\nvs\n%s", rep.Result, budgeted)
		}
		if rep = ask(t, c, url, req); rep.status != http.StatusOK || rep.Cached {
			t.Fatalf("repeat: status %d cached %v; partial (budgeted) results must not be cached", rep.status, rep.Cached)
		}
	})

	// At capacity every cell refuses with a plain 503 + Retry-After —
	// nothing has been streamed yet, so a stream client gets real HTTP
	// error semantics too.
	eachCell(t, "admission", func(t *testing.T, c pipelineCell) {
		// One run slot, no queueing, result cache off so both requests
		// need the engine.
		s, url := newClusterFixture(t, 3, Config{MaxConcurrent: 1, MaxWait: -1, ResultCacheSize: -1}).server(c)
		parked := make(chan struct{})
		release := make(chan struct{})
		var once sync.Once
		s.testHookRunning = func() {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
		done := make(chan int, 1)
		go func() {
			body, _ := json.Marshal(baseRequest(1, "scanmatch"))
			resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				done <- 0
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		<-parked // the first request now holds the only slot
		rep := ask(t, c, url, baseRequest(2, "scanmatch"))
		close(release)
		if status := <-done; status != http.StatusOK {
			t.Errorf("parked request status %d", status)
		}
		if rep.status != http.StatusServiceUnavailable {
			t.Fatalf("over-capacity request: status %d, want 503", rep.status)
		}
		if rep.header.Get("Retry-After") != "1" || rep.header.Get("Content-Type") != "application/json" {
			t.Fatalf("503 headers: Retry-After %q Content-Type %q, want a plain JSON refusal",
				rep.header.Get("Retry-After"), rep.header.Get("Content-Type"))
		}
		if st := getStats(t, url); st.Admission.Rejected < 1 || st.Admission.Limit != 1 {
			t.Fatalf("admission stats: %+v, want ≥1 rejected at limit 1", st.Admission)
		}
	})
}

// TestCoordinatedMetaPrefetchHonorsTableTimeout: the table's query
// timeout bounds a coordinated request's shard-meta prefetch. A shard
// that accepts the meta call and never answers costs the answer that
// shard's data (200, degraded, the shard named and counted), and a
// cluster of such shards a 503 — neither may hang until the client
// gives up.
func TestCoordinatedMetaPrefetchHonorsTableTimeout(t *testing.T) {
	const timeout = time.Second
	fx := newClusterFixture(t, 3, Config{})
	hung := make(chan struct{})
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-hung:
		}
	}))
	t.Cleanup(silent.Close)
	t.Cleanup(func() { close(hung) }) // runs before Close, which waits for handlers

	for _, tc := range []struct {
		name   string
		silent []bool
	}{
		{"one silent shard", []bool{false, true, false}},
		{"all shards silent", []bool{true, true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refs := make([]cluster.ShardRef, len(tc.silent))
			for i, mute := range tc.silent {
				refs[i] = cluster.ShardRef{Name: shardName(i), URL: fx.shards[i].URL}
				if mute {
					refs[i].URL = silent.URL
				}
			}
			s := New(Config{})
			if err := s.LoadTable(TableSpec{Name: "fixture", Shards: refs, QueryTimeoutMS: timeout.Milliseconds()}); err != nil {
				t.Fatal(err)
			}
			ts := newHTTPServer(t, s)

			body, _ := json.Marshal(baseRequest(5, "scan"))
			began := time.Now()
			client := http.Client{Timeout: 5 * timeout}
			resp, err := client.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("request hung past the table timeout: %v", err)
			}
			defer resp.Body.Close()
			if took := time.Since(began); took > 3*timeout {
				t.Fatalf("answered after %v, want within a small multiple of the %v table timeout", took, timeout)
			}

			if tc.silent[0] {
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("status %d, want 503 with every shard silent", resp.StatusCode)
				}
			} else {
				var rep clusterReply
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d, want 200 + degraded answer", resp.StatusCode)
				}
				if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Degraded || len(rep.MissingShards) != 1 || rep.MissingShards[0] != shardName(1) {
					t.Fatalf("degraded=%v missing=%v, want the silent shard named", rep.Degraded, rep.MissingShards)
				}
				var p ResultPayload
				if err := json.Unmarshal(rep.Result, &p); err != nil {
					t.Fatal(err)
				}
				if !p.Partial || p.Exact || p.IO.TuplesRead == 0 {
					t.Fatalf("payload partial=%v exact=%v tuples=%d, want the live shards' partial answer",
						p.Partial, p.Exact, p.IO.TuplesRead)
				}
			}
			for i, sc := range getStats(t, ts.URL).Tables["fixture"].Shards {
				if tc.silent[i] && (sc.Errors == 0 || sc.Healthy) {
					t.Errorf("silent shard %s: errors=%d healthy=%v, want it counted", sc.Name, sc.Errors, sc.Healthy)
				}
				if !tc.silent[i] && sc.Errors != 0 {
					t.Errorf("live shard %s has %d errors", sc.Name, sc.Errors)
				}
			}
		})
	}
}
