package server

import (
	"context"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"fastmatch/internal/engine"
)

// Answer-quality observability: the serving layer's view of how good the
// probabilistic answers actually are. Two mechanisms feed it:
//
//   - Quality telemetry (engine.Options.Quality): per-round convergence
//     state and a terminal report the engine computes during the run
//     itself. Requested by clients ("quality": true) or switched on by
//     the audit sampler; observational only — result bytes are identical
//     either way.
//   - Shadow audits: a configured fraction of completed sampling-executor
//     answers is re-executed off the request path with the exact Scan
//     executor (engine.AuditRun), yielding ground-truth precision@k,
//     rank displacement, and guarantee-violation counts. Partial
//     (truncated) answers claimed no guarantee and are never audited,
//     so the violation counter only ever reflects answers that did.
//
// Both land in a bounded ring served at GET /v1/debug/quality, in the
// per-table counters (/v1/stats), and in the fastmatch_quality_* /
// fastmatch_audit_* Prometheus families (/metrics).

// QualityEntry is one completed query's answer-quality record in the
// debug ring: the engine's quality report, plus the shadow-audit verdict
// when the query was sampled for auditing.
type QualityEntry struct {
	QueryID    string    `json:"query_id"`
	Table      string    `json:"table"`
	Executor   string    `json:"executor"`
	RecordedAt time.Time `json:"recorded_at"`
	// Quality is the engine's convergence report (present when the run
	// collected quality telemetry).
	Quality *engine.QualityReport `json:"quality,omitempty"`
	// Audit is the shadow audit's ground-truth comparison (present when
	// the query was sampled for auditing and the exact pass succeeded);
	// AuditError records why an attempted audit failed.
	Audit      *engine.Audit `json:"audit,omitempty"`
	AuditError string        `json:"audit_error,omitempty"`
}

// qualityRing keeps the most recent quality entries for
// GET /v1/debug/quality, newest first. Unlike the trace ring (slowest
// wins) recency is the right order here: an operator asks "how good have
// answers been lately", not "which was worst ever".
type qualityRing struct {
	mu      sync.Mutex
	cap     int
	entries []QualityEntry // newest first
}

// newQualityRing creates a ring keeping up to size entries; size < 0
// disables recording entirely.
func newQualityRing(size int) *qualityRing {
	if size < 0 {
		size = 0
	}
	return &qualityRing{cap: size}
}

// record offers one entry to the ring.
func (r *qualityRing) record(e QualityEntry) {
	if r.cap == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, QualityEntry{})
	copy(r.entries[1:], r.entries)
	r.entries[0] = e
	if len(r.entries) > r.cap {
		r.entries = r.entries[:r.cap]
	}
}

// snapshot copies the current entries, newest first.
func (r *qualityRing) snapshot() []QualityEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]QualityEntry, len(r.entries))
	copy(out, r.entries)
	return out
}

// QualityLogResponse is the body of GET /v1/debug/quality.
type QualityLogResponse struct {
	// Queries lists recent answer-quality records, newest first (at most
	// Config.QualityRingSize).
	Queries []QualityEntry `json:"queries"`
}

func (s *Server) handleDebugQuality(w http.ResponseWriter, _ *http.Request) {
	entries := s.quality.snapshot()
	if entries == nil {
		entries = []QualityEntry{}
	}
	writeJSON(w, http.StatusOK, QualityLogResponse{Queries: entries})
}

// isSamplingExecutor reports whether the executor answers with a
// probabilistic (ε, δ) guarantee — the only answers worth auditing
// against the exact ranking.
func isSamplingExecutor(e engine.Executor) bool {
	switch e {
	case engine.ScanMatch, engine.SyncMatch, engine.FastMatch:
		return true
	}
	return false
}

// auditFractionFor resolves a table's effective shadow-audit fraction:
// the per-table override when present (negative = explicitly off), the
// server default otherwise.
func (s *Server) auditFractionFor(e *tableEntry) float64 {
	f := s.cfg.AuditFraction
	if e.auditFraction != nil {
		f = *e.auditFraction
	}
	if f < 0 {
		return 0
	}
	return f
}

// auditSelected draws the per-request audit decision. A fraction ≥ 1
// audits every eligible query (the deterministic setting tests and smoke
// runs use); in between it is an independent coin flip per request.
func (s *Server) auditSelected(e *tableEntry) bool {
	f := s.auditFractionFor(e)
	return f > 0 && (f >= 1 || rand.Float64() < f)
}

// recordQuality publishes a completed query's answer-quality record: the
// quality report goes to the debug ring immediately, and — when the
// request was sampled for auditing — a shadow audit re-executes the query
// exactly off the request path, with the ring entry following once the
// verdict is in. The table entry stays held (pq retain/done) until the
// audit finishes, and the audit re-runs the request's own plan, so the
// exact pass always runs over the same data generation the approximate
// answer saw.
func (s *Server) recordQuality(pq *preparedQuery, res *engine.Result) {
	entry := QualityEntry{
		QueryID:    pq.id,
		Table:      pq.req.Table,
		Executor:   pq.opts.Executor.String(),
		RecordedAt: time.Now(),
		Quality:    res.Quality,
	}
	// Partial answers claimed no guarantee: record their (truncated)
	// quality report but never audit them — a phantom violation count
	// would indict the guarantee for a promise it never made.
	if !pq.audit || res.Partial || len(res.TopK) == 0 {
		if entry.Quality != nil {
			s.quality.record(entry)
		}
		return
	}
	pq.retain()
	s.auditWG.Add(1)
	go func() {
		defer s.auditWG.Done()
		defer pq.done()
		entry.Audit, entry.AuditError = s.runAudit(pq, res)
		pq.entry.metrics.observeAudit(entry.Audit, entry.AuditError != "")
		s.quality.record(entry)
	}()
}

// runAudit executes one shadow audit: the runner's exact reference pass
// (a local Scan re-execution of the plan and target; coordinated answers
// are exact and never audited) compared against the approximate answer.
// It competes for a regular admission slot (an audit is a full scan; it
// must not dodge the concurrency bound serving runs respect)
// but never holds up a client — callers run it on a background goroutine.
func (s *Server) runAudit(pq *preparedQuery, res *engine.Result) (*engine.Audit, string) {
	if s.adm.acquire(context.Background()) != admitOK {
		return nil, "audit skipped: server at capacity"
	}
	defer s.adm.release()
	began := time.Now()
	audit, err := pq.run.reference(context.Background(), res)
	if err != nil {
		s.log.Warn("shadow audit failed", "query_id", pq.id, "table", pq.req.Table, "error", err)
		return nil, err.Error()
	}
	s.log.Info("shadow audit",
		"query_id", pq.id,
		"table", pq.req.Table,
		"precision_at_k", audit.PrecisionAtK,
		"guarantee_violations", audit.GuaranteeViolations,
		"reconstruction_violations", audit.ReconstructionViolations,
		"max_displacement", audit.MaxDisplacement,
		"exact_tuples", audit.ExactIO.TuplesRead,
		"duration_ms", float64(time.Since(began))/float64(time.Millisecond),
	)
	return audit, ""
}
