package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"fastmatch/internal/engine"
)

// FuzzQuerySpec drives the query decoder end to end: arbitrary bytes are
// decoded as a QuerySpec the way the query handler decodes its body,
// compiled with toQuery, fingerprinted and prepared over the fixture
// table. Seed corpus in testdata/fuzz/FuzzQuerySpec/; run with
//
//	go test -run=NONE -fuzz=FuzzQuerySpec -fuzztime=15s ./internal/server/
//
// The invariant: every stage returns an error or a value — never a
// panic — and Prepare returns a plan exactly when it returns no error.
func FuzzQuerySpec(f *testing.F) {
	eng := engine.New(fixtureTable(f))
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
		if _, err := q.Fingerprint(); err != nil {
			t.Fatalf("wire query has no fingerprint: %v", err)
		}
		p, err := eng.Prepare(q)
		if (p == nil) == (err == nil) {
			t.Fatalf("Prepare returned plan %v with error %v", p != nil, err)
		}
	})
}
