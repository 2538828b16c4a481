package server

import (
	"context"
	"math/rand/v2"
	"time"

	"fastmatch/internal/engine"
)

// Answer-quality observability: the serving layer's view of how good the
// probabilistic answers actually are. Two mechanisms feed it:
//
//   - Quality telemetry: per-round convergence state and a terminal
//     report every sampling run computes as it goes. Clients see it with
//     "quality": true; the query record keeps it either way.
//   - Shadow audits: a configured fraction of completed sampling-executor
//     answers is re-executed off the request path with the exact Scan
//     executor (engine.AuditRun), yielding ground-truth precision@k,
//     rank displacement, and guarantee-violation counts. Partial
//     (truncated) answers claimed no guarantee and are never audited,
//     so the violation counter only ever reflects answers that did.
//
// Both land in the request's query record (GET /v1/debug/queries/{id}),
// in the per-table counters (/v1/stats), and in the fastmatch_quality_* /
// fastmatch_audit_* Prometheus families (/metrics).

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

// startAudit shadow-audits a completed answer when the table's audit
// fraction selects it: the query is re-executed exactly off the request
// path, and the verdict is filled into the request's query record by ID
// once it is in. Partial answers claimed no guarantee and are never
// audited — a phantom violation count would indict the guarantee for a
// promise it never made. The table entry stays held (pq retain/done)
// until the audit finishes, and the audit re-runs the request's own
// plan, so the exact pass always runs over the same data generation the
// approximate answer saw.
func (s *Server) startAudit(pq *preparedQuery, res *engine.Result) {
	if !isSamplingExecutor(pq.opts.Executor) || res.Partial || len(res.TopK) == 0 || !s.auditSelected(pq.entry) {
		return
	}
	pq.retain()
	s.auditWG.Add(1)
	go func() {
		defer s.auditWG.Done()
		defer pq.done()
		audit, errMsg := s.runAudit(pq, res)
		pq.entry.metrics.observeAudit(audit, errMsg != "")
		s.queries.setAudit(pq.id, audit, errMsg)
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
