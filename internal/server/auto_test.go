package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

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
