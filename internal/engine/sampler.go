package engine

import (
	"fmt"
	"strings"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/histogram"
)

// Executor selects the block-selection strategy, mirroring the approaches
// compared in §5.2.
type Executor int

const (
	// Scan is the exact full-pass baseline (no sampling).
	Scan Executor = iota
	// ScanMatch samples by scanning blocks sequentially with no skipping,
	// terminating when HistSim's criterion holds.
	ScanMatch
	// SyncMatch applies AnyActive per block with the last-committed
	// candidate states (Algorithm 2) — no lookahead.
	SyncMatch
	// FastMatch applies AnyActive with lookahead marking (Algorithm 3):
	// marking decisions are made for whole lookahead windows ahead of the
	// reads, decoupling the sampling engine from the I/O manager (§4.2
	// Challenge 4).
	FastMatch
	// ParallelScan is Scan's pass at Options.Workers (default GOMAXPROCS)
	// even under a RowBudget or OnProgress, where Scan reads on one
	// worker; results are identical to Scan.
	ParallelScan
	// Auto picks Scan or FastMatch per run before any I/O (ResolveExecutor).
	Auto
)

// String implements fmt.Stringer.
func (e Executor) String() string {
	switch e {
	case Scan:
		return "Scan"
	case ScanMatch:
		return "ScanMatch"
	case SyncMatch:
		return "SyncMatch"
	case FastMatch:
		return "FastMatch"
	case ParallelScan:
		return "ParallelScan"
	case Auto:
		return "Auto"
	default:
		return fmt.Sprintf("Executor(%d)", int(e))
	}
}

// exact reports the exact-pass executors, which count every candidate in
// one pass.
func (e Executor) exact() bool { return e == Scan || e == ParallelScan }

// ParseExecutor maps an executor name (String's, in any case) onto its
// Executor; an unknown name yields an *InvalidOptionsError.
func ParseExecutor(s string) (Executor, error) {
	for e := Scan; e <= Auto; e++ {
		if strings.EqualFold(s, e.String()) {
			return e, nil
		}
	}
	return 0, &InvalidOptionsError{Field: "Executor",
		Reason: fmt.Sprintf("unknown executor %q (want auto, scan, parallelscan, scanmatch, syncmatch or fastmatch)", s)}
}

// IOStats counts the I/O work a run performed. Traces record it as
// trace.IO(io), a conversion that compiles only while trace.IO has the
// same fields in the same order.
type IOStats struct {
	// BlocksRead / BlocksSkipped count block-selection decisions:
	// AnyActive skips and zone-map prunes both land in BlocksSkipped.
	BlocksRead    int64 `json:"blocks_read"`
	BlocksSkipped int64 `json:"blocks_skipped"`
	// BlocksPruned counts the subset of BlocksSkipped proven row-free by
	// per-block statistics (zone maps) rather than by AnyActive.
	BlocksPruned int64 `json:"blocks_pruned"`
	// TuplesRead counts tuples consumed. Rows of pruned blocks are
	// charged to guards and sample accounting (so results stay
	// byte-identical with pruning off) but are NOT counted here: the
	// whole point of pruning is that they were never read.
	TuplesRead int64 `json:"tuples_read"`
	// Wraps counts cursor wrap-arounds over the block space.
	Wraps int64 `json:"wraps"`
}

// Add accumulates other into s: the mergeable-value fold for I/O
// counters, used by the per-worker merge and by serving layers
// aggregating per-run stats. Like core.Batch.Merge it is associative and
// commutative (integer sums), so per-partition stats folded in any order
// equal a single-stream count.
func (s *IOStats) Add(other IOStats) {
	s.BlocksRead += other.BlocksRead
	s.BlocksSkipped += other.BlocksSkipped
	s.BlocksPruned += other.BlocksPruned
	s.TuplesRead += other.TuplesRead
	s.Wraps += other.Wraps
}

// Chunk-committed sampling rounds
//
// Every sampling pass (Stage1 and each SampleUntil round) is one walk
// over the block permutation on the run's own goroutine. The walk makes
// every policy decision — consumed-set skips, AnyActive probes, zone-map
// virtual skips, guard/budget checks — against *committed* state only,
// and reads each block it decides to read at once through the round's
// one scanKernel, whose accumulate loops also count rows per candidate
// into an uncommitted tally. At fixed chunk boundaries the walk commits
// the tally into the deficit bookkeeping, visiting only the committed
// active set; at round end the kernel's histograms are merged into the
// round batch (core.Batch.Merge).
//
// Adaptive decisions — round termination when deficits are met, the
// active set AnyActive probes see — therefore advance at chunk
// granularity instead of row granularity: a round may read up to one
// chunk (at most samplerChunkMaxBlocks blocks) past the point a
// row-fresh policy would have stopped. That granularity is fixed per
// table (derived from the block size), so it is part of the
// deterministic contract, and the Sampler interface explicitly permits
// the extra samples — they only sharpen the cumulative estimates.
//
// Chunk boundaries sit at fixed positions in block-index space — the
// walk commits after visiting any block b with (b+1) ≡ 0 (mod
// chunkBlocks), and at the end of the block space — so the commit
// schedule is a pure function of the block indices walked, independent
// of how many blocks in a chunk were skipped.
//
// There is no read fan-out: FastMatch wins by skipping blocks, not by
// reading the chosen ones on more threads, and a per-chunk worker pool
// measured slower than this one goroutine for every sampling executor.
// Options.Workers parallelizes only the exact path.
const (
	// samplerChunkRows sizes the commit granularity: chunks target this
	// many rows' worth of blocks.
	samplerChunkRows = 4096
	// samplerChunkMinBlocks / samplerChunkMaxBlocks clamp the chunk for
	// extreme block sizes.
	samplerChunkMinBlocks = 4
	samplerChunkMaxBlocks = 64
)

// chunkBlocks returns the chunk-commit granularity (in blocks) for the
// given block size.
func chunkBlocks(blockSize int) int {
	if blockSize <= 0 {
		return samplerChunkMinBlocks
	}
	c := samplerChunkRows / blockSize
	if c < samplerChunkMinBlocks {
		c = samplerChunkMinBlocks
	}
	if c > samplerChunkMaxBlocks {
		c = samplerChunkMaxBlocks
	}
	return c
}

// blockSampler implements core.Sampler over a block-structured table. It
// owns the I/O manager (block reads) and the sampling engine (block
// selection policy); the statistics engine is internal/core driving it.
type blockSampler struct {
	plan *Plan
	src  colstore.Reader
	mode Executor

	guard     *runGuard // nil when nothing enforces termination
	lookahead int
	consumed  *bitmap.Bitset
	consCnt   int
	cursor    int
	exact     []bool // sticky per-candidate exhaustion flags
	stats     IOStats

	// Round-local deficit bookkeeping. active is the committed unmet
	// candidate set AnyActive probes and lookahead marking read; it is
	// refreshed at chunk commits, never mid-chunk.
	deficit []int64
	unmet   int
	active  []int
}

// newSampler binds a block sampler to the plan under a run's options:
// the executor's block policy and lookahead. startBlock is normalized
// into the block space.
func (p *Plan) newSampler(opts Options, startBlock int, guard *runGuard) *blockSampler {
	src := p.engine.src
	nb := src.NumBlocks()
	bs := &blockSampler{
		plan:      p,
		src:       src,
		mode:      opts.Executor,
		guard:     guard,
		lookahead: opts.Lookahead,
		consumed:  bitmap.NewBitset(nb),
		exact:     make([]bool, len(p.cand.blocks)),
		deficit:   make([]int64, len(p.cand.blocks)),
	}
	if bs.lookahead <= 0 {
		bs.lookahead = 1024
	}
	if nb > 0 {
		bs.cursor = ((startBlock % nb) + nb) % nb
	}
	return bs
}

// NumCandidates implements core.Sampler.
func (bs *blockSampler) NumCandidates() int { return len(bs.plan.cand.blocks) }

// Groups implements core.Sampler.
func (bs *blockSampler) Groups() int { return bs.plan.grp.n }

// TotalRows implements core.Sampler.
func (bs *blockSampler) TotalRows() int64 { return int64(bs.src.NumRows()) }

// Stats returns a snapshot of the I/O counters.
func (bs *blockSampler) Stats() IOStats { return bs.stats }

func (bs *blockSampler) allConsumed() bool {
	return bs.consCnt >= bs.src.NumBlocks()
}

// newBatch allocates an empty batch over the plan's candidate domain.
func (p *Plan) newBatch() *core.Batch {
	n := len(p.cand.blocks)
	return &core.Batch{Counts: make([]int64, n), Hists: make([]*histogram.Histogram, n)}
}

func (bs *blockSampler) sealBatch(b *core.Batch) *core.Batch {
	b.Exhausted = bs.allConsumed()
	b.Exact = append([]bool(nil), bs.exact...)
	if b.Exhausted {
		for i := range b.Exact {
			b.Exact[i] = true
		}
	}
	return b
}

// Stage1 implements core.Sampler: read whole blocks sequentially until at
// least m tuples have been drawn. A guard stop returns the partial batch
// with the termination error (wrapping core.ErrInterrupted).
func (bs *blockSampler) Stage1(m int) (*core.Batch, error) {
	batch := bs.plan.newBatch()
	err := bs.runRound(batch, m)
	return bs.sealBatch(batch), err
}

// skipVirtual consumes a stats-pruned block without reading it. Every
// quantity that feeds the statistics engine or a termination guard is
// charged exactly as a real read of a qualifying-row-free block would
// charge it — Drawn (stage-1 p-values consume it), the guard's row
// budget, the consumed set driving exactness inference — so the run's
// decisions, and therefore its results (including partials under
// cancellation), are byte-identical to a run with pruning disabled. The
// only deltas are the documented I/O counters, and BlockSpan is never
// called: a simulated-latency backend must not sleep for a block the
// scan proved it does not need.
func (bs *blockSampler) skipVirtual(b int, batch *core.Batch) {
	bs.chargeBlock(b, batch)
	bs.stats.BlocksSkipped++
	bs.stats.BlocksPruned++
}

// chargeBlock commits the decision to consume block b: its rows are
// charged to the batch and the guard, and the block marked consumed.
func (bs *blockSampler) chargeBlock(b int, batch *core.Batch) {
	n := bs.plan.blockRows(b)
	batch.Drawn += n
	bs.guard.addRows(n)
	bs.consumed.Set(b)
	bs.consCnt++
}

// readBlock charges block b and accumulates its rows into the round's
// kernel.
func (bs *blockSampler) readBlock(b int, batch *core.Batch, kern *scanKernel) {
	bs.chargeBlock(b, batch)
	lo, hi := bs.src.BlockSpan(b)
	kern.block(lo, hi)
	bs.stats.BlocksRead++
	bs.stats.TuplesRead += int64(hi - lo)
}

// SampleUntil implements core.Sampler with the executor's block policy.
func (bs *blockSampler) SampleUntil(need map[int]int) (*core.Batch, error) {
	batch := bs.plan.newBatch()
	bs.unmet = 0
	for i := range bs.deficit {
		bs.deficit[i] = 0
	}
	for id, n := range need {
		if id < 0 || id >= len(bs.plan.cand.blocks) {
			return nil, fmt.Errorf("engine: need for unknown candidate %d", id)
		}
		if n > 0 && !bs.exact[id] {
			bs.deficit[id] = int64(n)
			bs.unmet++
		}
	}
	if bs.unmet == 0 {
		return bs.sealBatch(batch), nil
	}
	bs.refreshActive()
	if stopErr := bs.runRound(batch, -1); stopErr != nil {
		// Interrupted mid-pass: the exactness inference below needs a
		// completed pass, so skip it and hand the partial batch up.
		return bs.sealBatch(batch), stopErr
	}
	// Any candidate still in deficit after a full pass has no tuples left
	// in unconsumed blocks (AnyActive is sound), so its cumulative
	// estimate is exact.
	if bs.unmet > 0 {
		for id, d := range bs.deficit {
			if d > 0 && bs.candidateExhausted(id) {
				bs.exact[id] = true
			}
		}
	}
	return bs.sealBatch(batch), nil
}

// refreshActive rebuilds the committed unmet candidate set.
func (bs *blockSampler) refreshActive() {
	bs.active = bs.active[:0]
	for id, d := range bs.deficit {
		if d > 0 {
			bs.active = append(bs.active, id)
		}
	}
}

// advance returns the current cursor block and moves the cursor,
// wrapping at the end of the block space.
func (bs *blockSampler) advance() int {
	b := bs.cursor
	bs.cursor++
	if bs.cursor >= bs.src.NumBlocks() {
		bs.cursor = 0
		bs.stats.Wraps++
	}
	return b
}

// runRound is the one walk for a sampling pass. stage1Need ≥ 0 selects
// stage-1 mode: sequential reads (no AnyActive) until Drawn reaches
// stage1Need. stage1Need < 0 selects deficit mode: the executor's block
// policy until every deficit is met (at chunk granularity) or the pass
// completes. Returns the guard's termination error (nil for a completed
// pass); either way the batch holds every block read.
func (bs *blockSampler) runRound(batch *core.Batch, stage1Need int) error {
	total := bs.src.NumBlocks()
	if total == 0 {
		return nil
	}
	stage1 := stage1Need >= 0
	chunk := chunkBlocks(bs.plan.blockSize)
	kern := bs.plan.newKernel(true)
	blocks := bs.plan.cand.blocks
	// The plan's zone-map masks: skipAll where a full read would happen,
	// skipGrp after an AnyActive probe (see Plan.skipAll).
	skipAll, skipGrp := bs.plan.skipAll, bs.plan.skipGrp

	// FastMatch lookahead window state: marking decisions are computed
	// for lookahead-sized tiles at fixed block-index positions
	// [kL, (k+1)L) (Algorithm 3), each tile marked in one bulk AnyActive
	// pass from the active set committed when the walk first enters it
	// (a round starting mid-tile marks only the tile's remainder). Marks
	// within a tile are stale by up to the tile length — safe because
	// the deficit set only shrinks within a round, so a stale mark is a
	// superset of what fresher state would mark. Anchoring tiles to block
	// indices (not to the visit sequence) keeps the marking schedule a
	// pure function of the blocks walked.
	var mark []bool
	winStart, winEnd := 0, 0 // current tile's block range; empty until first FastMatch visit

	var stopErr error
	for visited := 0; visited < total; visited++ {
		if stage1 {
			if batch.Drawn >= int64(stage1Need) {
				break
			}
		} else if bs.unmet == 0 {
			break
		}
		if bs.allConsumed() {
			break
		}
		if stopErr = bs.guard.stop(); stopErr != nil {
			break
		}
		b := bs.advance()
		read := false
		switch {
		case !stage1 && bs.mode == FastMatch:
			if b < winStart || b >= winEnd {
				n := bs.lookahead - b%bs.lookahead
				if n > total-b {
					n = total - b
				}
				if cap(mark) < n {
					mark = make([]bool, n)
				}
				mark = mark[:n]
				bitmap.MarkAny(blocks, bs.active, b, mark)
				winStart, winEnd = b, b+n
			}
			switch {
			case bs.consumed.Get(b):
			case !mark[b-winStart]:
				bs.stats.BlocksSkipped++
			case skipGrp != nil && skipGrp.Get(b):
				bs.skipVirtual(b, batch)
			default:
				read = true
			}
		case !stage1 && bs.mode == SyncMatch:
			switch {
			case bs.consumed.Get(b):
			// Algorithm 2: probe this one block with the last-committed
			// active set.
			case !anyActive(blocks, bs.active, b):
				bs.stats.BlocksSkipped++
			// Group-prunable blocks only: candidate-prunable ones were
			// already rejected (without sample accounting) by AnyActive.
			case skipGrp != nil && skipGrp.Get(b):
				bs.skipVirtual(b, batch)
			default:
				read = true
			}
		default: // stage 1 and ScanMatch: read everything not pruned
			switch {
			case bs.consumed.Get(b):
			case skipAll != nil && skipAll.Get(b):
				bs.skipVirtual(b, batch)
			default:
				read = true
			}
		}
		if read {
			bs.readBlock(b, batch, kern)
		}
		// Commit at fixed block-index boundaries (see the package
		// comment): after block b with (b+1) ≡ 0 mod chunk, and at the
		// end of the block space (the wrap point), so the commit
		// schedule never depends on how many blocks were skipped.
		if (b+1)%chunk == 0 || b+1 == total {
			bs.commitChunk(kern)
		}
	}
	bs.commitChunk(kern)
	if err := batch.Merge(scanBatch(kern.fold(), 0)); err != nil {
		panic(err) // candidate domains match by construction
	}
	return stopErr
}

// commitChunk walks the committed active set, draining the kernel's
// per-candidate tally into the deficit bookkeeping and dropping every
// candidate whose deficit it meets, then zeroes the whole tally. Every
// candidate with a positive deficit is in the active set (SampleUntil
// builds it from the deficits, and only this walk lowers them), so the
// walk sees every tally that can move a deficit; the rest are dropped,
// as they always were. Filtering in place keeps the active set in
// ascending id order, exactly as refreshActive would rebuild it.
func (bs *blockSampler) commitChunk(k *scanKernel) {
	live := bs.active[:0]
	for _, id := range bs.active {
		c, d := k.cnt[id], bs.deficit[id]
		switch {
		case c < d:
			bs.deficit[id] = d - c
			live = append(live, id)
		case d > 0:
			bs.deficit[id] = 0
			bs.unmet--
		}
	}
	bs.active = live
	clear(k.cnt)
}

// anyActive is Algorithm 2's AnyActive for one block: whether block b
// may hold a row of any active candidate. Each probe touches a different
// candidate's bitmap, the cache-hostile pattern SyncMatch models.
func anyActive(blocks []*bitmap.Bitset, active []int, b int) bool {
	for _, id := range active {
		if blocks[id].Get(b) {
			return true
		}
	}
	return false
}

// candidateExhausted reports whether every block containing candidate i
// has been consumed.
func (bs *blockSampler) candidateExhausted(i int) bool {
	cb := bs.plan.cand.blocks[i]
	for w := 0; w < cb.NumWords(); w++ {
		if cb.Word(w)&^bs.consumed.Word(w) != 0 {
			return false
		}
	}
	return true
}
