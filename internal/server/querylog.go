package server

import (
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"fastmatch/internal/engine"
	"fastmatch/internal/obs/trace"
)

// traceRetention is how long a slow query stays interesting: records
// older than this leave the slowest view before new ones compete for a
// slot, so one pathological request from hours ago cannot squat in it
// forever.
const traceRetention = 15 * time.Minute

// QueryRecord is one query request's story, served at
// GET /v1/debug/queries/{id} under the request's X-Query-ID: what it
// asked, what ran and why, how it ended, where the time went (the span
// tree), how the estimate converged (the quality report) and — when the
// answer was shadow-audited — whether it kept its guarantee.
type QueryRecord struct {
	QueryID string `json:"query_id"`
	Table   string `json:"table"`
	// Executor is the executor the request resolved to; Auto, present
	// only when the request asked for auto, says why. Both are empty
	// for a request that failed before its options were resolved.
	Executor string               `json:"executor,omitempty"`
	Auto     *engine.AutoDecision `json:"auto,omitempty"`
	// Outcome is "ok", "failed", "canceled" or "timed_out"; Status the
	// HTTP status the response carried; Cached a result-cache hit.
	Outcome    string `json:"outcome"`
	Status     int    `json:"status"`
	Cached     bool   `json:"cached"`
	DurationNS int64  `json:"duration_ns"`
	// Trace is the request's span tree.
	Trace trace.Snapshot `json:"trace"`
	// Quality is the sampling run's answer-quality report (on a cache
	// hit, the report of the run that filled the cache); nil for exact
	// answers and requests that never ran.
	Quality *engine.QualityReport `json:"quality,omitempty"`
	// Audit is the shadow audit's verdict, filled in when the audit
	// finishes; AuditError records why an attempted audit failed.
	Audit      *engine.Audit `json:"audit,omitempty"`
	AuditError string        `json:"audit_error,omitempty"`
}

// queryLog keeps the records of recent requests in two views within one
// bound N: the N newest ("how have answers been lately") and the N
// slowest younger than traceRetention ("where are the worst offenders").
// A record in both views is one record, so a late audit verdict lands in
// both.
type queryLog struct {
	mu      sync.Mutex
	cap     int
	newest  []*QueryRecord // newest first
	slowest []*QueryRecord // duration-descending
	// now is the log's clock, injectable so the retention sweep is
	// testable without real 15-minute waits.
	now func() time.Time
}

// newQueryLog creates a log keeping up to size records per view; size
// < 0 disables recording entirely.
func newQueryLog(size int) *queryLog {
	return &queryLog{cap: max(size, 0), now: time.Now}
}

// add records one finished request.
func (l *queryLog) add(rec *QueryRecord) {
	if l.cap == 0 {
		return
	}
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.newest = slices.Insert(l.newest, 0, rec)
	if len(l.newest) > l.cap {
		l.newest[l.cap] = nil
		l.newest = l.newest[:l.cap]
	}
	l.slowest = slices.DeleteFunc(l.slowest, func(r *QueryRecord) bool {
		return now.Sub(r.Trace.StartTime) > traceRetention
	})
	if len(l.slowest) >= l.cap {
		if rec.DurationNS <= l.slowest[len(l.slowest)-1].DurationNS {
			return
		}
		l.slowest = slices.Delete(l.slowest, len(l.slowest)-1, len(l.slowest))
	}
	// After every equally slow record: ties keep arrival order.
	i := sort.Search(len(l.slowest), func(i int) bool { return l.slowest[i].DurationNS < rec.DurationNS })
	l.slowest = slices.Insert(l.slowest, i, rec)
}

// find returns the record of query id, or nil once both views evicted
// it. The caller holds mu.
func (l *queryLog) find(id string) *QueryRecord {
	for _, view := range [][]*QueryRecord{l.newest, l.slowest} {
		if i := slices.IndexFunc(view, func(r *QueryRecord) bool { return r.QueryID == id }); i >= 0 {
			return view[i]
		}
	}
	return nil
}

// get copies the record of query id.
func (l *queryLog) get(id string) (QueryRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r := l.find(id); r != nil {
		return *r, true
	}
	return QueryRecord{}, false
}

// setAudit fills a shadow audit's verdict into the record of query id.
// A record evicted while its audit ran stays evicted: the verdict is
// dropped here (the table's audit metrics still count it).
func (l *queryLog) setAudit(id string, a *engine.Audit, errMsg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r := l.find(id); r != nil {
		r.Audit, r.AuditError = a, errMsg
	}
}

// list copies one view: newest first, or slowest first.
func (l *queryLog) list(slowest bool) []QueryRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	view := l.newest
	if slowest {
		view = l.slowest
	}
	out := make([]QueryRecord, len(view))
	for i, r := range view {
		out[i] = *r
	}
	return out
}

// QueryLogResponse is the body of GET /v1/debug/queries.
type QueryLogResponse struct {
	// Queries lists the newest records first (at most
	// Config.QueryLogSize) or, with ?order=slowest, the slowest of the
	// last 15 minutes first.
	Queries []QueryRecord `json:"queries"`
}

func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	var slowest bool
	switch order := r.URL.Query().Get("order"); order {
	case "", "newest":
	case "slowest":
		slowest = true
	default:
		writeError(w, http.StatusBadRequest, "order %q: want newest or slowest", order)
		return
	}
	writeJSON(w, http.StatusOK, QueryLogResponse{Queries: s.queries.list(slowest)})
}

func (s *Server) handleDebugQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.queries.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no query %q in the query log", id)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}
