package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"fastmatch/internal/cluster"
	"fastmatch/internal/core"
	"fastmatch/internal/engine"
)

// postPartial serves one POST /v1/internal/partial body through s's
// handler and returns the status and response body.
func postPartial(s *Server, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/internal/partial", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// FuzzShardSegment drives the shard endpoint end to end: arbitrary bytes
// are posted to /v1/internal/partial, which decodes them as a
// cluster.PartialRequest and runs its segment over the fixture table.
// Seed corpus in testdata/fuzz/FuzzShardSegment/; run with
//
//	go test -run=NONE -fuzz=FuzzShardSegment -fuzztime=15s ./internal/server/
//
// The invariant: the answer is a 4xx carrying an ErrorResponse, or a 200
// whose segment Batch decodes to one slot per plan candidate (or whose
// meta answers a meta op) — never a panic or a 5xx. Workers and the row
// budget come off the wire unchecked by the decoder: workers above
// engine.MaxWorkers is refused with a 400 and any other count is capped
// at the block count, and the budget is only compared, so neither sizes
// an unbounded allocation. A segment kind other than "scan" (the retired
// "target" among them) is refused with a 400.
func FuzzShardSegment(f *testing.F) {
	tbl := fixtureTable(f)
	s := New(Config{})
	if err := s.RegisterTable("fixture", tbl); err != nil {
		f.Fatal(err)
	}
	eng := engine.New(tbl)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxRequestBody {
			return // MaxBytesReader refuses these with a 400
		}
		status, body := postPartial(s, data)
		if status != http.StatusOK {
			var e ErrorResponse
			if status < 400 || status >= 500 || json.Unmarshal(body, &e) != nil || e.Error == "" {
				t.Fatalf("status %d with body %q, want 200 or a 4xx ErrorResponse", status, body)
			}
			return
		}
		var preq cluster.PartialRequest
		if err := json.Unmarshal(data, &preq); err != nil {
			t.Fatalf("200 for a request that does not decode: %v", err)
		}
		var resp cluster.PartialResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("200 with an undecodable body: %v", err)
		}
		if preq.Op == "meta" {
			if resp.Meta == nil || resp.Segment != nil {
				t.Fatalf("meta op answered %q", body)
			}
			return
		}
		if resp.Segment == nil || resp.Meta != nil {
			t.Fatalf("segment op answered %q", body)
		}
		var spec QuerySpec
		if err := json.Unmarshal(preq.Query, &spec); err != nil {
			t.Fatal(err)
		}
		q, err := spec.toQuery(eng)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := core.DecodeBatch(resp.Segment.Batch)
		if err != nil {
			t.Fatalf("segment batch does not decode: %v", err)
		}
		if len(batch.Counts) != plan.NumCandidates() {
			t.Fatalf("segment batch has %d candidates, plan has %d", len(batch.Counts), plan.NumCandidates())
		}
	})
}

// TestShardSegmentRejectsDeadline pins that a segment's deadline is its
// request context's: a "deadline" field on the wire is unknown, so 400.
func TestShardSegmentRejectsDeadline(t *testing.T) {
	s := New(Config{})
	if err := s.RegisterTable("fixture", fixtureTable(t)); err != nil {
		t.Fatal(err)
	}
	body := `{"table":"fixture","query":{"z":"Z","x":["X"]},"op":"segment",` +
		`"segment":{"kind":"scan","deadline":"2030-01-01T00:00:00Z"}}`
	if status, resp := postPartial(s, []byte(body)); status != http.StatusBadRequest {
		t.Fatalf("stray deadline: status %d (%s), want 400", status, resp)
	}
}

// TestShardSegmentRejectsTargetKind pins the retired target segment: a
// coordinator takes a candidate target from its scan partials, so a
// "target" segment is an unknown kind, and its candidate field an
// unknown field — both 400, neither a panic.
func TestShardSegmentRejectsTargetKind(t *testing.T) {
	s := New(Config{})
	if err := s.RegisterTable("fixture", fixtureTable(t)); err != nil {
		t.Fatal(err)
	}
	for seg, want := range map[string]string{
		`{"kind":"target"}`:                      "unknown segment kind",
		`{"kind":"target","target_candidate":3}`: "unknown field",
	} {
		body := `{"table":"fixture","query":{"z":"Z","x":["X"]},"op":"segment","segment":` + seg + `}`
		if status, resp := postPartial(s, []byte(body)); status != http.StatusBadRequest || !bytes.Contains(resp, []byte(want)) {
			t.Errorf("segment %s: status %d (%s), want 400 naming %q", seg, status, resp, want)
		}
	}
}

// TestShardSegmentRejectsTooManyWorkers pins the segment path's worker
// bound: the endpoint skips admission and Options.Validate, so
// RunShardSegment refuses more than engine.MaxWorkers workers itself,
// with a 400, before any worker starts.
func TestShardSegmentRejectsTooManyWorkers(t *testing.T) {
	s := New(Config{})
	if err := s.RegisterTable("fixture", fixtureTable(t)); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"table":"fixture","query":{"z":"Z","x":["X"]},"op":"segment","segment":{"kind":"scan","workers":%d}}`,
		engine.MaxWorkers+1)
	if status, resp := postPartial(s, []byte(body)); status != http.StatusBadRequest || !bytes.Contains(resp, []byte("workers")) {
		t.Fatalf("status %d (%s), want 400 naming the workers", status, resp)
	}
}
