package server

import (
	"encoding/json"
	"net/http"

	"fastmatch/internal/cluster"
)

// handleInternalPartial serves POST /v1/internal/partial — the
// shard-internal endpoint coordinators fold queries through. Two ops:
// "meta" answers the plan's shard metadata (domains, block counts, data
// generation) for coordinator validation and cache keying; "segment"
// runs one stateless exact scan of this shard's blocks
// (Plan.RunShardSegment). Any other segment kind, and a segment asking
// for more than engine.MaxWorkers workers, is a request the shard cannot
// run, refused with 400. Segments carry no cross-call state, so
// retries are harmless and any shard replica could answer them.
//
// The endpoint shares the plan cache with /v1/query: a shard serving
// both direct queries and coordinated segments for the same query shape
// resolves one plan, not two. It deliberately skips admission — a
// coordinated query has at most one segment in flight per shard, and a
// shard queueing segments behind its own local queries would stall the
// whole cluster fold.
func (s *Server) handleInternalPartial(w http.ResponseWriter, r *http.Request) {
	var preq cluster.PartialRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&preq); err != nil {
		writeError(w, http.StatusBadRequest, "decoding partial request: %v", err)
		return
	}
	entry, ok := s.reg.acquire(preq.Table)
	if !ok {
		writeError(w, http.StatusNotFound, "no table %q (see /v1/tables)", preq.Table)
		return
	}
	defer s.reg.release(entry)
	if entry.coord != nil {
		writeError(w, http.StatusBadRequest,
			"table %q is itself coordinated: internal partials run on shard daemons, not coordinators", preq.Table)
		return
	}
	var spec QuerySpec
	if err := json.Unmarshal(preq.Query, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding query spec: %v", err)
		return
	}
	lq, status, err := bindLocal(entry, preq.Table, spec)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	plan, _, err := s.cachedPlan(lq.planKey, lq.eng, lq.q, nil)
	if err != nil {
		writeError(w, planStatus(err), "planning query: %v", err)
		return
	}

	switch preq.Op {
	case "meta":
		m := plan.ShardMeta()
		m.Generation = lq.gen
		writeJSON(w, http.StatusOK, cluster.PartialResponse{Meta: &m})
	case "segment":
		if preq.Segment == nil {
			writeError(w, http.StatusBadRequest, "segment op needs a segment")
			return
		}
		segRes, err := plan.RunShardSegment(r.Context(), preq.Segment)
		if err != nil { // an unknown segment kind or too many workers
			writeError(w, http.StatusBadRequest, "running segment: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, cluster.PartialResponse{Segment: segRes})
	default:
		writeError(w, http.StatusBadRequest, "unknown op %q (want meta or segment)", preq.Op)
	}
}
