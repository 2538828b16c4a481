package cluster

import (
	"context"
	"fmt"

	"fastmatch/internal/core"
	"fastmatch/internal/engine"
	"fastmatch/internal/obs/trace"
)

// distSampler implements core.Sampler over the shard set: one logical
// blockSampler whose block space is the concatenation of the shards'
// spaces, executed by chaining stateless per-shard segments in global
// cursor order. It mirrors blockSampler's walk exactly — same per-pass
// visit budget, same break conditions in the same order, same eager
// wrap accounting — so a coordinated run makes the identical sequence
// of sampling decisions a single node over the concatenated data would.
type distSampler struct {
	st      *runState
	ctx     context.Context
	runSpan *trace.Span

	// Walk position: shard index into st.walk plus the local cursor
	// within it (the coordinator owns the wrap; shard segments park at
	// their local block count).
	shardIdx int
	cursor   int

	totalCons int    // blocks consumed across all shards
	exact     []bool // sticky per-candidate exhaustion flags (global)
	io        engine.IOStats
}

func newDistSampler(st *runState, ctx context.Context, start int, runSpan *trace.Span) *distSampler {
	d := &distSampler{
		st:      st,
		ctx:     ctx,
		runSpan: runSpan,
		exact:   make([]bool, st.nCand),
	}
	// Map the normalized global start block to (shard, local cursor).
	for i, sr := range st.walk {
		if start < sr.meta.Blocks {
			d.shardIdx = i
			d.cursor = start
			return d
		}
		start -= sr.meta.Blocks
	}
	return d
}

// NumCandidates implements core.Sampler.
func (d *distSampler) NumCandidates() int { return d.st.nCand }

// Groups implements core.Sampler.
func (d *distSampler) Groups() int { return d.st.groups }

// TotalRows implements core.Sampler. Dead-at-connect shards are outside
// the run's block space and excluded here too: stage-1 p-values reason
// about the data actually reachable.
func (d *distSampler) TotalRows() int64 { return d.st.totalRows }

// Stats returns the run's accumulated I/O counters (summed shard
// segment deltas plus coordinator-accounted wraps).
func (d *distSampler) Stats() engine.IOStats { return d.io }

func (d *distSampler) allConsumed() bool { return d.totalCons >= d.st.globalNB }

// seal mirrors blockSampler.sealBatch over the global state.
func (d *distSampler) seal(b *core.Batch) *core.Batch {
	b.Exhausted = d.allConsumed()
	b.Exact = append([]bool(nil), d.exact...)
	if b.Exhausted {
		for i := range b.Exact {
			b.Exact[i] = true
		}
	}
	return b
}

// Stage1 implements core.Sampler: sequential whole-block reads chained
// across shards until m tuples have been drawn.
func (d *distSampler) Stage1(m int) (*core.Batch, error) {
	batch := d.st.newBatch()
	err := d.pass(batch, m, nil)
	return d.seal(batch), err
}

// SampleUntil implements core.Sampler: one deficit round chained across
// shards under the executor's block policy, with the same exactness
// inference blockSampler applies after a completed pass.
func (d *distSampler) SampleUntil(need map[int]int) (*core.Batch, error) {
	batch := d.st.newBatch()
	deficits := make(map[int]int64)
	for id, n := range need {
		if id < 0 || id >= d.st.nCand {
			return nil, coreNeedErr(id)
		}
		if n > 0 && !d.exact[id] {
			deficits[id] = int64(n)
		}
	}
	if len(deficits) == 0 {
		return d.seal(batch), nil
	}
	if stopErr := d.pass(batch, -1, deficits); stopErr != nil {
		// Interrupted mid-pass: exactness inference needs a completed
		// pass, so hand the partial batch up as-is.
		return d.seal(batch), stopErr
	}
	// A candidate still in deficit after a full pass has no tuples left
	// in unconsumed blocks on any live shard, so its cumulative estimate
	// is exact — unless a shard died (degraded runs claim nothing).
	if !d.st.degraded {
		for id, def := range deficits {
			if def > 0 && d.exhaustedGlobally(id) {
				d.exact[id] = true
			}
		}
	}
	return d.seal(batch), nil
}

// exhaustedGlobally ANDs the freshest per-shard local-exhaustion flags:
// a shard's flags only change when one of its own segments runs, so the
// last-reported value is current for every live shard.
func (d *distSampler) exhaustedGlobally(id int) bool {
	for _, sr := range d.st.walk {
		if !sr.exh[id] {
			return false
		}
	}
	return true
}

// pass is the distributed twin of blockSampler.runRound: one sampling
// pass over the global block space, executed as a chain of shard
// segments. stage1Need ≥ 0 selects stage-1 mode (deficits nil);
// stage1Need < 0 selects deficit mode (deficits is the live residual
// map, mutated in place). The break conditions — drawn target / unmet
// deficits, global all-consumed, per-pass visit budget, termination
// guard — are evaluated in runRound's order so the pass ends exactly
// where the single-node loop's would.
func (d *distSampler) pass(batch *core.Batch, stage1Need int, deficits map[int]int64) error {
	st := d.st
	if st.globalNB == 0 {
		return nil
	}
	stage1 := stage1Need >= 0
	visits := st.globalNB
	for {
		if stage1 {
			if batch.Drawn >= int64(stage1Need) {
				return nil
			}
		} else if unmetCount(deficits) == 0 {
			return nil
		}
		if d.allConsumed() {
			return nil
		}
		if visits <= 0 {
			return nil
		}
		if err := st.stopCheck(); err != nil {
			return err
		}
		sr := st.walk[d.shardIdx]
		if sr.dead {
			// Walk past a dead shard: its blocks were folded in as
			// consumed when it died, so this mirrors the single-node
			// cursor skipping over already-consumed blocks — one visit
			// per block, nothing read.
			visits -= sr.meta.Blocks - d.cursor
			d.advanceShard()
			continue
		}
		if d.cursor >= sr.meta.Blocks {
			d.advanceShard()
			continue
		}
		req := &engine.ShardSegment{
			Kind:               engine.SegRound,
			Executor:           st.opts.Executor,
			Lookahead:          st.opts.Lookahead,
			Workers:            st.opts.Workers,
			DisableBlockSkip:   st.opts.DisableBlockSkip,
			DisableScanKernels: st.opts.DisableScanKernels,
			Cursor:             d.cursor,
			Consumed:           sr.consumed,
			ConsumedCount:      sr.consCnt,
			Visits:             visits,
			GlobalBlocks:       st.globalNB,
			OthersConsumed:     d.totalCons - sr.consCnt,
			RowBudget:          st.residualBudget(),
			Deadline:           st.deadline,
		}
		if stage1 {
			req.Kind = engine.SegStage1
			req.Stage1Need = stage1Need - int(batch.Drawn)
		} else {
			req.Deficits = deficits
		}
		res, err := sr.shard.Segment(d.ctx, req)
		var part *core.Batch
		if err == nil {
			part, err = core.DecodeBatch(res.Batch)
		}
		sr.segments++
		if err != nil {
			if stop := st.segmentFailed(sr, err); stop != nil {
				return stop
			}
			// Degraded-but-honest: treat the dead shard's remaining
			// blocks as consumed with zero contribution. The answer
			// stays a true partial over the data actually read; run()
			// forces Partial on the final result and names the shard.
			shardSpan(d.runSpan, sr, req, nil, false)
			visits -= sr.meta.Blocks - d.cursor
			d.totalCons += sr.meta.Blocks - sr.consCnt
			sr.consCnt = sr.meta.Blocks
			d.advanceShard()
			continue
		}
		if err := batch.Merge(part); err != nil {
			return err
		}
		st.charged += part.Drawn
		sr.io.Add(res.IO)
		d.io.Add(res.IO)
		d.totalCons += res.ConsumedCount - sr.consCnt
		sr.consumed = res.Consumed
		sr.consCnt = res.ConsumedCount
		sr.exh = res.LocalExhausted
		d.cursor = res.Cursor
		visits -= res.Visited
		if !stage1 {
			replaceDeficits(deficits, res.Deficits)
		}
		shardSpan(d.runSpan, sr, req, res, false)
		if res.Stopped != "" {
			return res.StopError(st.budget, st.charged)
		}
		if d.cursor >= sr.meta.Blocks {
			// The segment parked at its shard's end: chain to the next
			// shard now, wrapping eagerly like blockSampler.advance does
			// (the wrap is accounted even if the pass ends here).
			d.advanceShard()
		}
	}
}

// advanceShard moves the walk to the next shard, wrapping to shard 0 —
// and accounting the wrap — past the last one. The coordinator owns the
// Wraps counter: shard segments never wrap locally.
func (d *distSampler) advanceShard() {
	d.shardIdx++
	d.cursor = 0
	if d.shardIdx >= len(d.st.walk) {
		d.shardIdx = 0
		d.io.Wraps++
	}
}

// coreNeedErr mirrors the engine sampler's unknown-candidate error.
func coreNeedErr(id int) error {
	return fmt.Errorf("engine: need for unknown candidate %d", id)
}

func unmetCount(deficits map[int]int64) int {
	n := 0
	for _, def := range deficits {
		if def > 0 {
			n++
		}
	}
	return n
}

// replaceDeficits rewrites the global residual map with a segment's
// leftover demands (deficits only shrink within a round).
func replaceDeficits(deficits, residual map[int]int64) {
	for id := range deficits {
		deficits[id] = residual[id]
	}
}
