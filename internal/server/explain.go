package server

import (
	"net/http"

	"fastmatch/internal/engine"
)

// ExplainResponse is the body of POST /v1/explain: the plan's static
// execution profile — what the planner resolved and what the skip masks
// prove prunable — without running the query. The request body is the
// same QueryRequest as /v1/query (target and most options are ignored;
// executor and kernel/skip toggles shape the report).
type ExplainResponse struct {
	Table string `json:"table"`
	// Plan is the engine's static profile for the resolved plan.
	Plan engine.ExplainInfo `json:"plan"`
	// PlanCached reports whether the plan came from the plan cache.
	PlanCached bool `json:"plan_cached"`
	// Executor names the executor the request would run; Auto, present
	// only when the request asked for auto, says why.
	Executor string               `json:"executor"`
	Auto     *engine.AutoDecision `json:"auto,omitempty"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	pq := s.bindQuery(w, r, blockingSink{w})
	if pq == nil {
		return
	}
	defer pq.done()
	if pq.entry.coord != nil {
		pq.fail(http.StatusUnprocessableEntity,
			"table %q is coordinated: explain it on a shard daemon (plans live where the data does)", pq.req.Table)
		return
	}
	if !s.prepareQuery(r.Context(), pq) {
		return
	}
	plan, planHit, err := s.cachedPlan(pq.planKey, pq.eng, pq.q, pq.tr)
	if err != nil {
		pq.fail(http.StatusUnprocessableEntity, "planning query: %v", err)
		return
	}
	s.finishRequest(pq, outcomeOK, nil, planHit, false, http.StatusOK, "")
	writeJSON(w, http.StatusOK, ExplainResponse{
		Table:      pq.req.Table,
		Plan:       plan.Explain(),
		PlanCached: planHit,
		Executor:   pq.opts.Executor.String(),
		Auto:       pq.auto,
	})
}
