package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"time"

	"fastmatch/internal/engine"
	"fastmatch/internal/obs/trace"
)

// newQueryID returns a fresh 16-hex-char request identifier. Crypto
// randomness is overkill for log correlation, but it needs no seeding or
// locking and can never repeat across restarts.
func newQueryID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The system entropy pool failing is effectively fatal elsewhere;
		// here a constant ID only degrades log correlation.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// finishRequest is the single exit point every query request (blocking or
// streaming, success or failure) funnels through: it stamps the trace's
// end, records per-table metrics, writes the request's query record and
// the per-request log line, and — past the slow-query threshold — logs
// the full span tree. res is nil for cache hits and never-ran requests;
// hit is the result-cache entry that answered a cache hit (nil
// otherwise); status is the HTTP status the response carried. Returns
// the finished trace's snapshot so the caller can attach it to the
// response.
func (s *Server) finishRequest(pq *preparedQuery, oc runOutcome, res *engine.Result, planHit bool, hit *cachedResult, status int, errMsg string) trace.Snapshot {
	d := time.Since(pq.began)
	resultHit := hit != nil
	pq.tr.End()
	if pq.entry != nil {
		pq.entry.metrics.observe(d, res, oc, planHit, resultHit)
	}
	snap := pq.tr.Snapshot()
	rec := &QueryRecord{
		QueryID:    pq.id,
		Table:      pq.req.Table,
		Outcome:    oc.String(),
		Status:     status,
		Cached:     resultHit,
		DurationNS: int64(d),
		Trace:      snap,
	}
	if pq.resultKey != "" { // set once prepareQuery resolved the executor
		rec.Executor, rec.Auto = pq.opts.Executor.String(), pq.auto
	}
	switch {
	case res != nil:
		rec.Quality = res.Quality
	case resultHit:
		rec.Quality = hit.quality
	}
	s.queries.add(rec)
	attrs := []any{
		"query_id", pq.id,
		"table", pq.req.Table,
		"outcome", oc.String(),
		"status", status,
		"duration_ms", float64(d) / float64(time.Millisecond),
		"cached", resultHit,
	}
	if errMsg != "" {
		attrs = append(attrs, "error", errMsg)
	}
	if res != nil {
		attrs = append(attrs,
			"blocks_read", res.IO.BlocksRead,
			"tuples_read", res.IO.TuplesRead,
			"partial", res.Partial,
		)
	}
	if oc == outcomeOK && errMsg == "" {
		s.log.Info("query", attrs...)
	} else {
		s.log.Warn("query", attrs...)
	}
	if s.cfg.SlowQuery > 0 && d >= s.cfg.SlowQuery {
		// The span tree is marshaled compactly into one attribute so a
		// single log line carries the whole offender profile.
		tree, err := json.Marshal(snap)
		if err != nil {
			tree = []byte("{}")
		}
		s.log.Warn("slow query",
			"query_id", pq.id,
			"table", pq.req.Table,
			"duration_ms", float64(d)/float64(time.Millisecond),
			"threshold_ms", float64(s.cfg.SlowQuery)/float64(time.Millisecond),
			"trace", json.RawMessage(tree),
		)
	}
	return snap
}
