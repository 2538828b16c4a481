package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastmatch/internal/obs/trace"
)

// TestAutoDefaultAnswersExactly runs the wire default on the fixture,
// where every candidate's sample need is far above σN/4: the request
// without an executor answers exactly, is never shadow-audited, shares
// one result-cache entry with an explicit scan, and explain and the run
// span both name Scan and carry the decision. An explicit fastmatch
// request still runs the sampler, audited, byte-identical to a direct
// run.
func TestAutoDefaultAnswersExactly(t *testing.T) {
	s, tbl, ts := newTestServer(t, Config{AuditFraction: 1})
	exact := func(raw json.RawMessage) bool {
		t.Helper()
		var p ResultPayload
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		return p.Exact
	}

	auto := baseRequest(8, "")
	status, rep := postQuery(t, ts.URL, auto)
	if status != http.StatusOK || rep.Cached || !exact(rep.Result) {
		t.Fatalf("default request: status %d cached %v result %s", status, rep.Cached, rep.Result)
	}
	status, scan := postQuery(t, ts.URL, baseRequest(8, "scan"))
	if status != http.StatusOK || !scan.Cached || !bytes.Equal(scan.Result, rep.Result) {
		t.Fatalf("explicit scan must hit the default request's cache entry: cached %v\n%s\nvs\n%s",
			scan.Cached, scan.Result, rep.Result)
	}
	s.auditWG.Wait()
	if tm := getStats(t, ts.URL).Tables["fixture"]; tm.AuditRuns != 0 || tm.QualityRuns != 0 {
		t.Fatalf("an exact default answer was audited: audits %d, quality runs %d", tm.AuditRuns, tm.QualityRuns)
	}

	body, _ := json.Marshal(auto)
	resp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ex ExplainResponse
	err = json.NewDecoder(resp.Body).Decode(&ex)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Executor != "Scan" || ex.Auto == nil || ex.Auto.C != 4 ||
		ex.Auto.SigmaRows != 0.002*float64(tbl.NumRows()) ||
		float64(ex.Auto.Need)*ex.Auto.C < ex.Auto.SigmaRows || ex.Auto.Ratio <= 0 {
		t.Fatalf("explain of the default request: executor %q, auto %+v", ex.Executor, ex.Auto)
	}

	auto.Trace = true
	body, _ = json.Marshal(auto)
	resp, err = http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var traced struct {
		Trace *trace.Snapshot `json:"trace"`
	}
	err = json.NewDecoder(resp.Body).Decode(&traced)
	resp.Body.Close()
	if err != nil || traced.Trace == nil {
		t.Fatalf("traced default request: %v", err)
	}
	run := traced.Trace.Find("run")
	if run == nil || run.Attrs["executor"] != "Scan" || run.Attrs["auto_need"] != float64(ex.Auto.Need) ||
		run.Attrs["auto_c"] != ex.Auto.C || run.Attrs["auto_ratio"] != ex.Auto.Ratio {
		t.Fatalf("run span of the default request: %+v", run)
	}

	fm := baseRequest(8, "fastmatch")
	status, fast := postQuery(t, ts.URL, fm)
	if status != http.StatusOK || fast.Cached {
		t.Fatalf("explicit fastmatch: status %d cached %v result %s", status, fast.Cached, fast.Result)
	}
	if want := directPayload(t, tbl, fm); !bytes.Equal(fast.Result, want) {
		t.Fatalf("explicit fastmatch differs from a direct run:\n%s\nvs\n%s", fast.Result, want)
	}
	s.auditWG.Wait()
	if tm := getStats(t, ts.URL).Tables["fixture"]; tm.AuditRuns != 1 {
		t.Fatalf("explicit fastmatch audits %d, want 1", tm.AuditRuns)
	}
	body, _ = json.Marshal(fm)
	resp, err = http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ex = ExplainResponse{}
	err = json.NewDecoder(resp.Body).Decode(&ex)
	resp.Body.Close()
	if err != nil || ex.Executor != "FastMatch" || ex.Auto != nil {
		t.Fatalf("explain of explicit fastmatch: executor %q, auto %+v, err %v", ex.Executor, ex.Auto, err)
	}
}

// TestWorkersFollowLoad: a request that names no workers reads on every
// core while it is the daemon's only traffic, and on one while another
// request is in flight or one of the last quietStarts starts found one
// (the run span's workers attr and worker spans agree); an explicit
// workers is always honoured, and a streamed scan keeps its frames,
// which come only from a one-worker sweep.
func TestWorkersFollowLoad(t *testing.T) {
	s, _, ts := newTestServer(t, Config{})
	var hold atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	var freed sync.Once
	free := func() { freed.Do(func() { close(release) }) }
	t.Cleanup(free) // a failed check must not leave a handler parked
	s.testHookRunning = func() {
		if hold.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
	}
	workerSpans := func(req QueryRequest) int {
		t.Helper()
		req.Trace = true
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var traced struct {
			Trace *trace.Snapshot `json:"trace"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&traced); err != nil || traced.Trace == nil {
			t.Fatalf("traced request: status %d, err %v", resp.StatusCode, err)
		}
		run := traced.Trace.Find("run")
		n := 0
		for _, sp := range run.Children {
			if strings.HasPrefix(sp.Name, "worker") {
				n++
			}
		}
		if run.Attrs["workers"] != float64(n) {
			t.Fatalf("run span says workers %v, has %d worker spans", run.Attrs["workers"], n)
		}
		return n
	}
	scanFrames := func(req QueryRequest) int {
		t.Helper()
		req.Trace = true // skips the result-cache read
		status, frames := postStream(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("stream status %d", status)
		}
		n := 0
		for _, f := range frames {
			if f.Progress != nil && f.Progress.Phase == "scan" {
				n++
			}
		}
		return n
	}
	// drained waits until the last response's handler has let go of its
	// entry: a client can read a response before its handler returns.
	drained := func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); s.reg.busy.Load() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d requests still in flight", s.reg.busy.Load())
			}
		}
	}
	auto := baseRequest(8, "")
	explicit := baseRequest(8, "")
	explicit.Options.Workers = intp(3)
	procs := runtime.GOMAXPROCS(0)

	if procs > 1 {
		if got := workerSpans(auto); got != procs {
			t.Fatalf("the daemon's only request read on %d workers, want GOMAXPROCS = %d", got, procs)
		}
	}
	if scanFrames(auto) == 0 || scanFrames(explicit) == 0 {
		t.Fatal("a streamed scan lost its frames")
	}

	hold.Store(true)
	done := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(baseRequest(9, "scanmatch"))
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-parked // one request now sits in the engine
	if got := workerSpans(auto); got != 1 {
		t.Errorf("beside a request in flight: %d workers, want 1", got)
	}
	if got := workerSpans(explicit); got != 3 {
		t.Errorf("explicit workers 3 beside a request in flight: %d workers", got)
	}
	if scanFrames(auto) == 0 {
		t.Error("a streamed scan beside a request in flight lost its frames")
	}
	free()
	if status := <-done; status != http.StatusOK {
		t.Fatalf("held request: status %d", status)
	}

	// Alone again, but the last starts found company: every core comes
	// back only at the quietStarts-th start that found none.
	for i := 1; i <= quietStarts; i++ {
		drained()
		want := 1
		if i == quietStarts {
			want = procs
		}
		if got := workerSpans(auto); got != want {
			t.Fatalf("quiet start %d of %d: %d workers, want %d", i, quietStarts, got, want)
		}
	}
}
