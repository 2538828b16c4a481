package engine

// ExplainInfo is a Plan's static execution profile: what the planner
// resolved, what the zone-map skip masks prove prunable, and whether the
// vectorized kernels cover the plan — everything knowable without
// running the query. Serving layers expose it verbatim
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
	// ScanKernelEligible reports whether every executor accumulates this
	// plan's blocks through a vectorized grouped-count kernel rather than
	// the scalar row loop (subject to Options.DisableScanKernels).
	ScanKernelEligible bool `json:"scan_kernel_eligible"`
}

// Explain reports the plan's static execution profile without running
// anything: pure inspection of already-built plan state (the skip masks
// are built at Prepare), so it is cheap and safe to call concurrently.
func (p *Plan) Explain() ExplainInfo {
	src := p.engine.src
	info := ExplainInfo{
		Rows:               src.NumRows(),
		Blocks:             src.NumBlocks(),
		BlockSize:          src.BlockSize(),
		Candidates:         p.cand.numCandidates(),
		CandidateKind:      p.cand.kind(),
		Groups:             p.grp.groups(),
		GroupKind:          p.grp.kind(),
		HasBlockStats:      blockStatsOf(src) != nil,
		ScanKernelEligible: p.shape != nil,
	}
	if p.skipAll != nil {
		info.PrunableBlocks = p.skipAll.Count()
	}
	if p.skipGrp != nil {
		info.PrunableGroupBlocks = p.skipGrp.Count()
	}
	return info
}
