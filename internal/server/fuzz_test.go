package server

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"fastmatch/internal/engine"
)

// FuzzQuerySpec drives the query decoder end to end: arbitrary bytes are
// decoded as a QuerySpec the way the query handler decodes its body,
// compiled with toQuery, fingerprinted, prepared over the fixture table
// and, once prepared, run through an exact Scan against a uniform
// target. Seed corpus in testdata/fuzz/FuzzQuerySpec/; run with
//
//	go test -run=NONE -fuzz=FuzzQuerySpec -fuzztime=15s ./internal/server/
//
// The invariant: every stage returns an error or a value — never a
// panic — and Prepare returns a plan exactly when it returns no error,
// whose candidates × groups fit the engine's 2²²-cell accumulator limit.
// Every plan Prepare admits runs, and no candidate's histogram counts
// more rows than the table holds.
func FuzzQuerySpec(f *testing.F) {
	tbl := fixtureTable(f)
	eng := engine.New(tbl)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxRequestBody {
			return // the handler's MaxBytesReader refuses these
		}
		var spec QuerySpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		q, err := spec.toQuery(eng)
		if err != nil {
			return
		}
		_ = q.Fingerprint()
		p, err := eng.Prepare(q)
		if (p == nil) == (err == nil) {
			t.Fatalf("Prepare returned plan %v with error %v", p != nil, err)
		}
		if p == nil {
			return
		}
		if int64(p.NumCandidates())*int64(p.Groups()) > 1<<22 {
			t.Fatalf("Prepare accepted %d candidates × %d groups", p.NumCandidates(), p.Groups())
		}
		opts := engine.DefaultOptions(tbl.NumRows())
		opts.Executor = engine.Scan
		opts.Params.K, opts.Params.Sigma = p.NumCandidates(), 0
		res, err := p.RunContext(context.Background(), engine.Target{Uniform: true}, opts)
		if err != nil {
			t.Fatalf("running an admitted plan: %v", err)
		}
		for _, m := range res.TopK {
			if total := m.Histogram.Total(); total > float64(tbl.NumRows()) {
				t.Fatalf("candidate %s counted %v rows of %d", m.Label, total, tbl.NumRows())
			}
		}
	})
}
