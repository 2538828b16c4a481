package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fastmatch/internal/datagen"
	"fastmatch/internal/engine"
	"fastmatch/internal/server"
)

// oracleFixture serves a small flights table through the real handler,
// in process, and returns the workload's oracle with one request and the
// daemon's true answer to it.
func oracleFixture(t *testing.T, workloadName string) (*oracle, request, []byte, int) {
	t.Helper()
	data, err := datagen.Flights(60_000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloadByName(workloadName)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := newOracle(w, engine.New(data.Table))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	if err := srv.RegisterTable(tableName, data.Table); err != nil {
		t.Fatal(err)
	}
	z, _ := data.Table.Column(queryZ)
	x, _ := data.Table.Column(queryX)
	req := newStream(w, []string{z.Dict.Value(0), z.Dict.Value(1)}, 1, 0).next()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(string(req.body))))
	if rec.Code != http.StatusOK {
		t.Fatalf("handler answered %d: %s", rec.Code, rec.Body)
	}
	return orc, req, rec.Body.Bytes(), x.Cardinality()
}

// verdict runs a response body through everything a window response
// goes through and returns why it failed, or "".
func verdict(orc *oracle, req request, status int, body []byte, groups int) string {
	var qr queryResponse
	if why := checkStructure(status, body, groups, &qr); why != "" {
		return why
	}
	return orc.grade(req, &qr.Result)
}

// tamper decodes the true answer, lets edit change it, and re-encodes.
func tamper(t *testing.T, body []byte, edit func(*queryResponse)) []byte {
	t.Helper()
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	edit(&qr)
	out, err := json.Marshal(qr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOracleAcceptsTrueAnswersAndRejectsTamperedOnes(t *testing.T) {
	for _, name := range []string{"scan-20m", "sample-20m"} {
		orc, req, body, groups := oracleFixture(t, name)
		if why := verdict(orc, req, http.StatusOK, body, groups); why != "" {
			t.Fatalf("%s: the daemon's own answer was rejected: %s", name, why)
		}
		cases := map[string][]byte{
			"partial answer":      tamper(t, body, func(qr *queryResponse) { qr.Result.Partial = true }),
			"degraded answer":     tamper(t, body, func(qr *queryResponse) { qr.Degraded = true }),
			"a match dropped":     tamper(t, body, func(qr *queryResponse) { qr.Result.TopK = qr.Result.TopK[:queryK-1] }),
			"a histogram bin cut": tamper(t, body, func(qr *queryResponse) { qr.Result.TopK[3].Histogram = qr.Result.TopK[3].Histogram[1:] }),
			"truncated body":      body[:len(body)/2],
		}
		if name == "scan-20m" {
			cases["one count off by one"] = tamper(t, body, func(qr *queryResponse) { qr.Result.TopK[2].Histogram[5]++ })
			cases["two ranks swapped"] = tamper(t, body, func(qr *queryResponse) {
				qr.Result.TopK[0], qr.Result.TopK[1] = qr.Result.TopK[1], qr.Result.TopK[0]
			})
		} else {
			// A sampled answer may differ from the exact one, but not by
			// returning the candidate farthest from the target.
			target, err := orc.plan.ResolveTarget(engine.Target{Candidate: req.target}, 0)
			if err != nil {
				t.Fatal(err)
			}
			opts := engineOptions(orc.w, orc.rows, req.seed)
			exact, err := orc.plan.RunWithTarget(target, engine.AuditReferenceOptions(opts, orc.plan.NumCandidates()))
			if err != nil {
				t.Fatal(err)
			}
			var far engine.Match
			for _, m := range exact.TopK {
				if m.Histogram.Total() >= opts.Params.Sigma*float64(orc.rows) {
					far = m
				}
			}
			cases["the farthest candidate returned"] = tamper(t, body, func(qr *queryResponse) {
				last := &qr.Result.TopK[queryK-1]
				last.ID, last.Label, last.Distance = far.ID, far.Label, far.Distance
			})
		}
		for what, tampered := range cases {
			if why := verdict(orc, req, http.StatusOK, tampered, groups); why == "" {
				t.Errorf("%s: %s was accepted", name, what)
			}
		}
		if why := verdict(orc, req, http.StatusServiceUnavailable, body, groups); why == "" {
			t.Errorf("%s: a 503 was accepted", name)
		}
	}
}

// A tampered response must be counted as failed and must not contribute
// a latency.
func TestTamperedResponseCountsAsFailed(t *testing.T) {
	orc, req, body, groups := oracleFixture(t, "scan-20m")
	good, bad := completed{req: req, latency: 5 * time.Millisecond}, completed{req: req, latency: 7 * time.Millisecond}
	good.resp, bad.resp = new(queryResponse), new(queryResponse)
	good.failure = checkStructure(http.StatusOK, body, groups, good.resp)
	wrong := tamper(t, body, func(qr *queryResponse) { qr.Result.TopK[0].Histogram[0] += 100 })
	bad.failure = checkStructure(http.StatusOK, wrong, groups, bad.resp)

	res := &runResult{}
	lat := res.tally([]completed{good, bad}, orc)
	if res.attempted != 2 || res.failed != 1 || len(res.failures) != 1 {
		t.Fatalf("attempted %d failed %d (%v), want 2 and 1", res.attempted, res.failed, res.failures)
	}
	if len(lat) != 1 || lat[0] != 5 {
		t.Fatalf("latencies %v, want only the correct response's 5 ms", lat)
	}
}
