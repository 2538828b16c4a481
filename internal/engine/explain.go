package engine

// ExplainInfo is a Plan's static execution profile: what the planner
// resolved and what the zone-map skip masks prove prunable — everything
// knowable without running the query. Serving layers expose it verbatim
// (POST /v1/explain), so the field set is JSON-tagged here.
type ExplainInfo struct {
	// Rows/Blocks/BlockSize describe the storage source.
	Rows      int `json:"rows"`
	Blocks    int `json:"blocks"`
	BlockSize int `json:"block_size"`
	// Candidates is the candidate-domain size; CandidateKind is "column"
	// (distinct Z values, bitmap-index backed) or "predicates" (compiled
	// predicate candidates, possibly overlapping).
	Candidates    int    `json:"candidates"`
	CandidateKind string `json:"candidate_kind"`
	// Groups is the histogram width; GroupKind is "single" (one
	// categorical X), "multi" (composite cross product), or "binned"
	// (binned measure).
	Groups    int    `json:"groups"`
	GroupKind string `json:"group_kind"`
	// HasBlockStats reports whether the backend carries per-block
	// statistics (zone maps) at all.
	HasBlockStats bool `json:"has_block_stats"`
	// PrunableBlocks counts blocks the skip masks prove free of
	// qualifying rows for full-read paths (the skipAll mask: candidate
	// union complement plus out-of-range measure blocks);
	// PrunableGroupBlocks the group-side subset SyncMatch/FastMatch
	// apply after their AnyActive probe (skipGrp ⊆ skipAll).
	PrunableBlocks      int `json:"prunable_blocks"`
	PrunableGroupBlocks int `json:"prunable_group_blocks"`
}

// Explain reports the plan's static execution profile without running
// anything: pure inspection of already-built plan state (the skip masks
// are built at Prepare), so it is cheap and safe to call concurrently.
func (p *Plan) Explain() ExplainInfo {
	src := p.engine.src
	info := ExplainInfo{
		Rows:          src.NumRows(),
		Blocks:        src.NumBlocks(),
		BlockSize:     src.BlockSize(),
		Candidates:    len(p.cand.blocks),
		CandidateKind: "column",
		Groups:        p.grp.n,
		GroupKind:     "single",
		HasBlockStats: blockStatsOf(src) != nil,
	}
	if p.cand.matchers != nil {
		info.CandidateKind = "predicates"
	}
	switch {
	case p.grp.binner != nil:
		info.GroupKind = "binned"
	case p.grp.mc != nil:
		info.GroupKind = "multi"
	}
	if p.skipAll != nil {
		info.PrunableBlocks = p.skipAll.Count()
	}
	if p.skipGrp != nil {
		info.PrunableGroupBlocks = p.skipGrp.Count()
	}
	return info
}
