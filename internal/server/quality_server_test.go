package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fastmatch/internal/colstore"
	"fastmatch/internal/engine"
)

// Answer-quality observability suite: the quality report on /v1/query,
// the shadow-audit sampler, the /v1/debug/quality ring, and the
// fastmatch_quality_* / fastmatch_audit_* metric families.

// qualityReply mirrors the query response with the quality report and
// the result kept raw for byte-level comparison.
type qualityReply struct {
	Cached  bool                  `json:"cached"`
	Quality *engine.QualityReport `json:"quality"`
	Result  json.RawMessage       `json:"result"`
}

// postQualityQuery sends a query request and decodes the reply including
// the quality report.
func postQualityQuery(t testing.TB, url string, req QueryRequest) (int, qualityReply) {
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
	var out qualityReply
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// getQualityLog fetches /v1/debug/quality.
func getQualityLog(t testing.TB, url string) QualityLogResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/debug/quality")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/quality: %s", resp.Status)
	}
	var out QualityLogResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestQualityReportInResponse checks the three contracts of
// "quality": true — the report rides next to the result, the result
// bytes are identical to an unadorned request's, and quality-carrying
// requests bypass the result-cache read (a cached payload has no report
// to attach).
func TestQualityReportInResponse(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	req := baseRequest(9, "scanmatch")
	req.Quality = true

	status, withQ := postQualityQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if withQ.Quality == nil {
		t.Fatal("quality:true response carries no quality report")
	}
	q := withQ.Quality
	if q.Termination == "" || len(q.Matches) == 0 {
		t.Fatalf("degenerate quality report: %+v", q)
	}
	if !q.GuaranteeMet || q.Truncated {
		t.Fatalf("complete run must report guarantee met, not truncated: %+v", q)
	}

	// The same request without quality returns byte-identical result
	// bytes — collection is observational — and may hit the cache the
	// quality run populated.
	req.Quality = false
	status, plain := postQualityQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("plain status %d", status)
	}
	if plain.Quality != nil {
		t.Fatal("plain request must not carry a quality report")
	}
	if !bytes.Equal(plain.Result, withQ.Result) {
		t.Fatalf("quality collection perturbed the result:\nwith:  %s\nplain: %s", withQ.Result, plain.Result)
	}
	if !plain.Cached {
		t.Fatal("quality run must still publish its payload to the result cache")
	}

	// A second quality request must bypass the cache read (cached=false)
	// yet still produce the same bytes.
	req.Quality = true
	status, again := postQualityQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("repeat status %d", status)
	}
	if again.Cached {
		t.Fatal("quality request must bypass the result-cache read")
	}
	if again.Quality == nil || !bytes.Equal(again.Result, withQ.Result) {
		t.Fatal("repeat quality run differs from the first")
	}
}

// TestExactExecutorRejectsQualityCollection: quality telemetry is a
// sampling-run concept; exact executors simply return no report.
func TestExactExecutorNoQualityReport(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	req := baseRequest(9, "scan")
	req.Quality = true
	status, reply := postQualityQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if reply.Quality != nil {
		t.Fatalf("exact scan returned a quality report: %+v", reply.Quality)
	}
}

// TestAuditSamplerGroundTruth forces the shadow audit on every query
// (AuditFraction 1) and checks the full chain: the audit runs off-path,
// its precision@k equals the test's own exact-ranking computation, and
// the verdict lands in /v1/debug/quality, /v1/stats, and /metrics.
func TestAuditSamplerGroundTruth(t *testing.T) {
	s, tbl, ts := newTestServer(t, Config{AuditFraction: 1})
	req := baseRequest(7, "scanmatch")
	status, reply := postQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	s.auditWG.Wait()

	log := getQualityLog(t, ts.URL)
	if len(log.Queries) != 1 {
		t.Fatalf("quality ring has %d entries, want 1", len(log.Queries))
	}
	entry := log.Queries[0]
	if entry.Table != "fixture" || entry.QueryID == "" {
		t.Fatalf("bad entry identity: %+v", entry)
	}
	if entry.AuditError != "" {
		t.Fatalf("audit failed: %s", entry.AuditError)
	}
	if entry.Audit == nil {
		t.Fatal("audited query has no audit verdict")
	}
	if entry.Quality == nil {
		t.Fatal("audited query collected no quality telemetry")
	}

	// Ground truth: the exact top-k from a direct Scan run over the same
	// table. Strict precision@k = |approx ∩ exact| / k.
	exactReq := req
	exactReq.Options = &OptionsSpec{K: intp(3), Executor: "scan"}
	var exact struct {
		TopK []MatchPayload `json:"topk"`
	}
	if err := json.Unmarshal(directPayload(t, tbl, exactReq), &exact); err != nil {
		t.Fatal(err)
	}
	var approx struct {
		TopK []MatchPayload `json:"topk"`
	}
	if err := json.Unmarshal(reply.Result, &approx); err != nil {
		t.Fatal(err)
	}
	inExact := make(map[string]bool, len(exact.TopK))
	for _, m := range exact.TopK {
		inExact[m.Label] = true
	}
	hits := 0
	for _, m := range approx.TopK {
		if inExact[m.Label] {
			hits++
		}
	}
	want := float64(hits) / float64(len(approx.TopK))
	if entry.Audit.PrecisionAtK != want {
		t.Fatalf("audit PrecisionAtK=%v, test-computed ground truth %v", entry.Audit.PrecisionAtK, want)
	}
	if entry.Audit.K != 3 || len(entry.Audit.Candidates) != 3 {
		t.Fatalf("audit shape: K=%d candidates=%d", entry.Audit.K, len(entry.Audit.Candidates))
	}

	st := getStats(t, ts.URL)
	tm := st.Tables["fixture"]
	if tm.AuditRuns != 1 || tm.AuditErrors != 0 {
		t.Fatalf("stats audit counters: runs=%d errs=%d", tm.AuditRuns, tm.AuditErrors)
	}
	if tm.QualityRuns != 1 {
		t.Fatalf("stats quality runs=%d, want 1", tm.QualityRuns)
	}

	samples, doc := scrapeMetrics(t, ts.URL)
	if v := samples[`fastmatch_audit_runs_total{table="fixture"}`]; v != 1 {
		t.Fatalf("fastmatch_audit_runs_total=%v, want 1", v)
	}
	if !strings.Contains(doc, `fastmatch_audit_precision_at_k_bucket{table="fixture"`) {
		t.Fatalf("fastmatch_audit_precision_at_k histogram absent from /metrics:\n%s", doc)
	}
	if v := samples[`fastmatch_audit_precision_at_k_count{table="fixture"}`]; v != 1 {
		t.Fatalf("fastmatch_audit_precision_at_k_count=%v, want 1", v)
	}
	if !strings.Contains(doc, `fastmatch_quality_rounds_bucket{table="fixture"`) {
		t.Fatal("fastmatch_quality_rounds histogram absent from /metrics")
	}
	if _, ok := samples[`fastmatch_quality_final_margin{table="fixture"}`]; !ok {
		t.Fatal("fastmatch_quality_final_margin gauge absent from /metrics")
	}
}

// TestTruncatedRunFlaggedNotAudited: a row-budget-truncated run must
// report Truncated in its quality report, must never be shadow-audited
// (it claimed no guarantee), and must leave the guarantee-violation
// counter untouched — even with the audit sampler forced on.
func TestTruncatedRunFlaggedNotAudited(t *testing.T) {
	s, _, ts := newTestServer(t, Config{AuditFraction: 1})
	req := baseRequest(5, "scanmatch")
	req.Quality = true
	req.Options.RowBudget = i64p(512)

	status, reply := postQualityQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var res struct {
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(reply.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("row budget 512 should have truncated the run")
	}
	if reply.Quality == nil || !reply.Quality.Truncated {
		t.Fatalf("truncated run's quality report: %+v", reply.Quality)
	}
	if reply.Quality.GuaranteeMet {
		t.Fatal("truncated run must not claim the guarantee")
	}

	s.auditWG.Wait()
	log := getQualityLog(t, ts.URL)
	if len(log.Queries) != 1 {
		t.Fatalf("quality ring has %d entries, want 1", len(log.Queries))
	}
	if log.Queries[0].Audit != nil || log.Queries[0].AuditError != "" {
		t.Fatalf("truncated run was audited: %+v", log.Queries[0])
	}
	tm := getStats(t, ts.URL).Tables["fixture"]
	if tm.AuditRuns != 0 || tm.AuditGuaranteeViolations != 0 {
		t.Fatalf("truncated run moved audit counters: runs=%d violations=%d",
			tm.AuditRuns, tm.AuditGuaranteeViolations)
	}
	if tm.QualityTruncatedRuns != 1 {
		t.Fatalf("quality_truncated_runs=%d, want 1", tm.QualityTruncatedRuns)
	}
	if v := scrapeSample(t, ts.URL, `fastmatch_quality_truncated_total{table="fixture"}`); v != 1 {
		t.Fatalf("fastmatch_quality_truncated_total=%v, want 1", v)
	}
	if v := scrapeSample(t, ts.URL, `fastmatch_audit_guarantee_violations_total{table="fixture"}`); v != 0 {
		t.Fatalf("fastmatch_audit_guarantee_violations_total=%v, want 0", v)
	}
}

// scrapeSample fetches one series from /metrics (0 if absent).
func scrapeSample(t testing.TB, url, series string) float64 {
	t.Helper()
	samples, _ := scrapeMetrics(t, url)
	return samples[series]
}

// TestPerTableAuditOverride: a per-table fraction overrides the server
// default in both directions.
func TestPerTableAuditOverride(t *testing.T) {
	s := New(Config{AuditFraction: 1})
	tbl := fixtureTable(t)
	off := -1.0
	if err := s.reg.register("muted", "test fixture", tbl, 0, &off); err != nil {
		t.Fatal(err)
	}
	if err := s.reg.register("loud", "test fixture", tbl, 0, nil); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"muted": 0, "loud": 1} {
		e, ok := s.reg.acquire(name)
		if !ok {
			t.Fatalf("table %q missing", name)
		}
		if got := s.auditFractionFor(e); got != want {
			t.Fatalf("table %q audit fraction %v, want %v", name, got, want)
		}
		e.release()
	}
}

// TestQualityRingBounded: the debug ring holds at most QualityRingSize
// entries, newest first.
func TestQualityRingBounded(t *testing.T) {
	_, _, ts := newTestServer(t, Config{QualityRingSize: 2})
	for seed := int64(1); seed <= 3; seed++ {
		req := baseRequest(seed, "scanmatch")
		req.Quality = true
		if status, _ := postQualityQuery(t, ts.URL, req); status != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, status)
		}
	}
	log := getQualityLog(t, ts.URL)
	if len(log.Queries) != 2 {
		t.Fatalf("ring has %d entries, want cap 2", len(log.Queries))
	}
	if log.Queries[0].RecordedAt.Before(log.Queries[1].RecordedAt) {
		t.Fatal("ring entries not newest-first")
	}
}

// TestStreamCarriesQueryIDAndQuality: the stream's start frame carries
// the query ID (for correlating with traces, logs, and the quality
// ring) and a quality-requesting stream's result frame carries the
// report.
func TestStreamCarriesQueryIDAndQuality(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	req := baseRequest(13, "scanmatch")
	req.Quality = true
	status, frames := postStream(t, ts.URL, req)
	if status != http.StatusOK || len(frames) < 2 {
		t.Fatalf("stream status %d, %d frames", status, len(frames))
	}
	start := frames[0]
	if start.Type != "progress" || start.Progress == nil || start.Progress.Phase != "start" {
		t.Fatalf("first frame is not the start frame: %+v", start)
	}
	if start.QueryID == "" {
		t.Fatal("start frame carries no query_id")
	}
	final := frames[len(frames)-1]
	if final.Type != "result" {
		t.Fatalf("last frame type %q", final.Type)
	}
	if final.Quality == nil || final.Quality.Rounds < 0 {
		t.Fatalf("result frame carries no quality report: %+v", final.Quality)
	}
}

// TestAuditRareTargetGradesAtRunSigma forces the shadow audit (audit=1)
// on a rare target whose nearest neighbours are rare too — the shape of
// a small airport queried against its peers. Stage 1 prunes every
// candidate below σ on purpose, so the guarantee only covers the common
// ones; an audit that ranked the rare neighbours (distance ≈ 0) into the
// exact top-k would flag every correct common answer as a violation.
func TestAuditRareTargetGradesAtRunSigma(t *testing.T) {
	b := colstore.NewBuilder(64)
	for _, c := range []string{"Z", "X"} {
		if _, err := b.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	add := func(z string, n int, inX0 float64) {
		for i := 0; i < n; i++ {
			x := "x0"
			if float64(i) >= inX0*float64(n) {
				x = fmt.Sprintf("x%d", 1+i%3)
			}
			if err := b.AppendRow(map[string]string{"Z": z, "X": x}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Six common candidates, 0.2 apart in L1 distance from the target
	// (wider than ε), and five rare ones — the target among them — all
	// concentrated on x0.
	for i, p := range []float64{0.6, 0.5, 0.4, 0.3, 0.2, 0.1} {
		add(fmt.Sprintf("C%d", i), 5_000, p)
	}
	for _, z := range []string{"T", "R0", "R1", "R2", "R3"} {
		add(z, 40, 1)
	}
	b.Shuffle(9)
	s := New(Config{AuditFraction: 1})
	if err := s.RegisterTable("rare", b.Build()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	req := QueryRequest{
		Table:  "rare",
		Query:  QuerySpec{Z: "Z", X: []string{"X"}},
		Target: TargetSpec{Candidate: "T"},
		Options: &OptionsSpec{
			K: intp(3), Epsilon: f64p(0.10), Delta: f64p(0.05), Sigma: f64p(0.01),
			Stage1Samples: intp(10_000), Executor: "scanmatch", Seed: i64p(4),
		},
	}
	status, reply := postQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var payload ResultPayload
	if err := json.Unmarshal(reply.Result, &payload); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range payload.TopK {
		got = append(got, m.Label)
	}
	if fmt.Sprint(got) != "[C0 C1 C2]" {
		t.Fatalf("top-3 %v, want the three closest common candidates [C0 C1 C2]", got)
	}
	s.auditWG.Wait()
	tm := getStats(t, ts.URL).Tables["rare"]
	if tm.AuditRuns != 1 || tm.AuditErrors != 0 {
		t.Fatalf("audit runs %d errors %d, want one clean audit", tm.AuditRuns, tm.AuditErrors)
	}
	if tm.AuditGuaranteeViolations != 0 {
		t.Fatalf("audit counted %d guarantee violations for a correct answer", tm.AuditGuaranteeViolations)
	}
	log := getQualityLog(t, ts.URL)
	if len(log.Queries) != 1 || log.Queries[0].Audit == nil {
		t.Fatalf("quality ring: %+v, want one audited entry", log.Queries)
	}
	if a := log.Queries[0].Audit; a.GuaranteeViolations != 0 || a.PrecisionAtK != 1 {
		t.Fatalf("audit verdict: %d violations, precision@k %g; want 0 and 1", a.GuaranteeViolations, a.PrecisionAtK)
	}
}
