package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
	// ParallelScan is the exact baseline run as N workers over disjoint
	// block partitions with per-worker accumulators merged at a barrier;
	// results are identical to Scan. Worker count comes from
	// Options.Workers (default GOMAXPROCS).
	ParallelScan
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
	default:
		return fmt.Sprintf("Executor(%d)", int(e))
	}
}

// IOStats counts the I/O work a run performed.
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
	// KernelBlocks counts blocks accumulated by a vectorized scan kernel
	// instead of the scalar per-row path.
	KernelBlocks int64 `json:"kernel_blocks"`
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
	s.KernelBlocks += other.KernelBlocks
	s.Wraps += other.Wraps
}

// Chunk-committed parallel sampling rounds
//
// Every sampling pass (Stage1 and each SampleUntil round) is driven by a
// single-threaded *planner* that walks the block permutation making every
// policy decision — consumed-set skips, AnyActive probes, zone-map
// virtual skips, guard/budget checks — against *committed* state only.
// Blocks the planner decides to read are charged eagerly (Drawn, the
// guard's row budget, the consumed set) and appended to a read list;
// the list is dispatched to workers in chunks of samplerChunkRows-worth
// of blocks. Workers accumulate into private mergeable partials
// (core.Batch counts/histograms); at each chunk barrier the planner
// commits their fresh per-candidate counts into the deficit bookkeeping,
// and at round end the partials are merged in worker order via
// core.Batch.Merge.
//
// This plan-then-read structure is what makes results byte-identical for
// ANY worker count, including workers=1:
//
//   - every policy decision is made serially from committed state, so
//     the set and order of planned blocks never depends on worker
//     timing;
//   - every planned block is always read (a guard stop flushes the
//     pending chunk first), so no speculative work is ever discarded and
//     Drawn/IOStats count exactly the committed work;
//   - partials hold only integer-valued quantities, so the worker-order
//     merge is exact (see core.Batch.Merge).
//
// The price is that adaptive decisions — round termination when deficits
// are met, the active set AnyActive probes see — advance at chunk
// granularity instead of row granularity: a round may read up to one
// chunk (at most samplerChunkMaxBlocks blocks) past the point a
// fully-serial row-fresh policy would have stopped. That granularity is
// fixed per table (derived from the block size, never from the worker
// count), so it is part of the deterministic contract, and the Sampler
// interface explicitly permits the extra samples — they only sharpen the
// cumulative estimates.
//
// Chunk boundaries sit at fixed positions in block-index space — the
// planner commits after visiting any block b with (b+1) ≡ 0 (mod
// ChunkBlocks), not after accumulating a buffer's worth of reads — so
// the commit schedule is a pure function of the block indices walked,
// independent of how many blocks in a chunk were skipped.
const (
	// samplerChunkRows sizes the commit granularity: chunks target this
	// many rows' worth of blocks.
	samplerChunkRows = 4096
	// samplerChunkMinBlocks / samplerChunkMaxBlocks clamp the chunk for
	// extreme block sizes.
	samplerChunkMinBlocks = 4
	samplerChunkMaxBlocks = 64
)

// blockSampler implements core.Sampler over a block-structured table. It
// owns the I/O manager (block reads) and the sampling engine (block
// selection policy); the statistics engine is internal/core driving it.
type blockSampler struct {
	plan *Plan
	src  colstore.Reader
	cand candidateMapper
	mode Executor

	guard     *runGuard // nil when nothing enforces termination
	lookahead int
	consumed  *bitmap.Bitset
	consCnt   int
	cursor    int
	exact     []bool // sticky per-candidate exhaustion flags
	stats     IOStats

	// workers is the read-fan-out width per chunk; ≤ 1 processes chunks
	// inline on the planner goroutine (no pool, no goroutines). Results
	// are byte-identical for every value — see the package comment above.
	workers int
	// kernels lets the workers' accumulators run the vectorized kernels
	// (Options.DisableScanKernels clears it).
	kernels bool

	// Zone-map pruning masks (nil = no pruning). skipAll marks blocks
	// provably free of qualifying rows for every candidate — safe to
	// virtual-skip wherever a full read would happen (Stage1, ScanMatch).
	// skipGrp ⊆ skipAll marks only group-prunable blocks; it is the mask
	// SyncMatch/FastMatch apply AFTER their AnyActive probe (blocks
	// AnyActive already rejects are skipped without sample accounting,
	// and pruning them here instead would perturb Drawn).
	skipAll *bitmap.Bitset
	skipGrp *bitmap.Bitset

	// Round-local deficit bookkeeping, owned by the planner. active is
	// the committed unmet candidate set AnyActive probes and lookahead
	// marking read; it is refreshed at chunk commits, never mid-chunk.
	deficit []int64
	unmet   int
	active  []int

	// Per-worker diagnostics accumulated across rounds (run-scoped, not
	// part of the result: they are worker-count-dependent by nature).
	wBlocks []int64
	wTuples []int64
	chunks  int64
}

// newSampler binds a block sampler to the plan under a run's options:
// the executor's block policy, lookahead, read fan-out (Workers ≤ 0
// selects GOMAXPROCS), and the skip/kernel knobs. startBlock is
// normalized into the block space.
func (p *Plan) newSampler(opts Options, startBlock int, guard *runGuard) *blockSampler {
	src := p.engine.src
	nb := src.NumBlocks()
	bs := &blockSampler{
		plan:      p,
		src:       src,
		cand:      p.cand,
		mode:      opts.Executor,
		guard:     guard,
		lookahead: opts.Lookahead,
		workers:   opts.Workers,
		kernels:   !opts.DisableScanKernels,
		consumed:  bitmap.NewBitset(nb),
		exact:     make([]bool, p.cand.numCandidates()),
		deficit:   make([]int64, p.cand.numCandidates()),
	}
	if bs.lookahead <= 0 {
		bs.lookahead = 1024
	}
	if bs.workers <= 0 {
		bs.workers = runtime.GOMAXPROCS(0)
	}
	if nb > 0 {
		bs.cursor = ((startBlock % nb) + nb) % nb
	}
	if !opts.DisableBlockSkip {
		bs.skipAll = p.skipAll
		bs.skipGrp = p.skipGrp
	}
	return bs
}

// NumCandidates implements core.Sampler.
func (bs *blockSampler) NumCandidates() int { return bs.cand.numCandidates() }

// Groups implements core.Sampler.
func (bs *blockSampler) Groups() int { return bs.plan.grp.groups() }

// TotalRows implements core.Sampler.
func (bs *blockSampler) TotalRows() int64 { return int64(bs.src.NumRows()) }

// Stats returns a snapshot of the I/O counters. The counters are
// maintained with atomics (workers update them concurrently within a
// chunk), so Stats may be called while a run is in flight (e.g. by a
// progress monitor on another goroutine).
func (bs *blockSampler) Stats() IOStats {
	return IOStats{
		BlocksRead:    atomic.LoadInt64(&bs.stats.BlocksRead),
		BlocksSkipped: atomic.LoadInt64(&bs.stats.BlocksSkipped),
		BlocksPruned:  atomic.LoadInt64(&bs.stats.BlocksPruned),
		TuplesRead:    atomic.LoadInt64(&bs.stats.TuplesRead),
		KernelBlocks:  atomic.LoadInt64(&bs.stats.KernelBlocks),
		Wraps:         atomic.LoadInt64(&bs.stats.Wraps),
	}
}

func (bs *blockSampler) allConsumed() bool {
	return bs.consCnt >= bs.src.NumBlocks()
}

// newBatch allocates an empty batch over the plan's candidate domain.
func (p *Plan) newBatch() *core.Batch {
	n := p.cand.numCandidates()
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
	atomic.AddInt64(&bs.stats.BlocksSkipped, 1)
	atomic.AddInt64(&bs.stats.BlocksPruned, 1)
}

// chargeBlock commits the decision to consume block b: its rows are
// charged to the batch and the guard, and the block marked consumed,
// before any worker touches it. Planned work is never abandoned (a guard
// stop flushes the pending chunk), so eager charging keeps Drawn and
// budget accounting identical to a fully-serial read-then-charge loop.
func (bs *blockSampler) chargeBlock(b int, batch *core.Batch) {
	n := bs.plan.blockRows(b)
	batch.Drawn += n
	bs.guard.addRows(n)
	bs.consumed.Set(b)
	bs.consCnt++
}

// SampleUntil implements core.Sampler with the executor's block policy.
func (bs *blockSampler) SampleUntil(need map[int]int) (*core.Batch, error) {
	batch := bs.plan.newBatch()
	bs.unmet = 0
	for i := range bs.deficit {
		bs.deficit[i] = 0
	}
	for id, n := range need {
		if id < 0 || id >= bs.cand.numCandidates() {
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
		atomic.AddInt64(&bs.stats.Wraps, 1)
	}
	return b
}

// runRound is the unified planner/committer for one sampling pass.
// stage1Need ≥ 0 selects stage-1 mode: sequential reads (no AnyActive)
// until Drawn reaches stage1Need. stage1Need < 0 selects deficit mode:
// the executor's block policy until every deficit is met (at chunk
// granularity) or the pass completes. Returns the guard's termination
// error (nil for a completed pass); on error the pending chunk has been
// flushed and the batch holds every committed sample.
func (bs *blockSampler) runRound(batch *core.Batch, stage1Need int) error {
	total := bs.src.NumBlocks()
	if total == 0 {
		return nil
	}
	stage1 := stage1Need >= 0
	chunkCap := ChunkBlocks(bs.plan.blockSize)
	workers := bs.workers
	if workers > chunkCap {
		workers = chunkCap
	}
	ws := bs.newWorkers(workers)

	// The per-round worker pool: spawned once per round (not per chunk),
	// joined on every return path so a canceled run never leaves readers
	// behind (the same discipline the old lookahead marker had).
	var tasks chan samplerTask
	var acks chan struct{}
	if workers > 1 {
		tasks = make(chan samplerTask)
		acks = make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range tasks {
					t.w.process(t.blocks)
					acks <- struct{}{}
				}
			}()
		}
		defer func() { close(tasks); wg.Wait() }()
	}

	readBuf := make([]int, 0, chunkCap)
	flush := func() {
		n := len(readBuf)
		if n == 0 {
			return
		}
		if workers == 1 || n < 2 {
			ws[0].process(readBuf)
		} else {
			p := workers
			if p > n {
				p = n
			}
			for i := 0; i < p; i++ {
				tasks <- samplerTask{w: ws[i], blocks: readBuf[i*n/p : (i+1)*n/p]}
			}
			for i := 0; i < p; i++ {
				<-acks
			}
		}
		bs.commitChunk(ws)
		readBuf = readBuf[:0]
	}

	// FastMatch lookahead window state: marking decisions are computed
	// for lookahead-sized tiles at fixed block-index positions
	// [kL, (k+1)L) (Algorithm 3), each tile marked in one bulk AnyActive
	// pass from the active set committed when the planner first enters
	// it (a round starting mid-tile marks only the tile's remainder).
	// Marks within a tile are stale by up to the tile length — safe
	// because the deficit set only shrinks within a round, so a stale
	// mark is a superset of what fresher state would mark. Anchoring
	// tiles to block indices (not to the visit sequence) keeps the
	// marking schedule a pure function of the blocks walked.
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
				} else {
					mark = mark[:n]
					for i := range mark {
						mark[i] = false
					}
				}
				bs.cand.markAnyActive(bs.active, b, mark)
				winStart, winEnd = b, b+n
			}
			switch {
			case bs.consumed.Get(b):
			case !mark[b-winStart]:
				atomic.AddInt64(&bs.stats.BlocksSkipped, 1)
			case bs.skipGrp != nil && bs.skipGrp.Get(b):
				bs.skipVirtual(b, batch)
			default:
				read = true
			}
		case !stage1 && bs.mode == SyncMatch:
			switch {
			case bs.consumed.Get(b):
			// Algorithm 2: probe each active candidate's bitmap for this
			// single block — the cache-hostile pattern SyncMatch models —
			// with the last-committed active set.
			case !bs.cand.blockAnyActive(bs.active, b):
				atomic.AddInt64(&bs.stats.BlocksSkipped, 1)
			// Group-prunable blocks only: candidate-prunable ones were
			// already rejected (without sample accounting) by AnyActive.
			case bs.skipGrp != nil && bs.skipGrp.Get(b):
				bs.skipVirtual(b, batch)
			default:
				read = true
			}
		default: // stage 1, ScanMatch, Scan: read everything not pruned
			switch {
			case bs.consumed.Get(b):
			case bs.skipAll != nil && bs.skipAll.Get(b):
				bs.skipVirtual(b, batch)
			default:
				read = true
			}
		}
		if read {
			bs.chargeBlock(b, batch)
			readBuf = append(readBuf, b)
		}
		// Commit at fixed block-index boundaries (see the package
		// comment): after block b with (b+1) ≡ 0 mod chunkCap, and at
		// the end of the block space (the wrap point), so the commit
		// schedule never depends on how many blocks were skipped.
		if (b+1)%chunkCap == 0 || b+1 == total {
			flush()
		}
	}
	flush()
	bs.foldWorkers(batch, ws)
	return stopErr
}

// commitChunk folds each worker's fresh per-chunk counts into the
// deficit bookkeeping, in worker order. Runs on the planner goroutine at
// a chunk barrier — no worker is in flight.
func (bs *blockSampler) commitChunk(ws []*samplerWorker) {
	changed := false
	for _, w := range ws {
		k := w.kern
		for _, id := range k.touched {
			c := k.cnt[id]
			k.cnt[id] = 0
			if d := bs.deficit[id]; d > 0 {
				if c >= d {
					bs.deficit[id] = 0
					bs.unmet--
					changed = true
				} else {
					bs.deficit[id] = d - c
				}
			}
		}
		k.touched = k.touched[:0]
	}
	if changed {
		bs.refreshActive()
	}
	bs.chunks++
}

// foldWorkers merges the per-worker round partials into the round batch
// in worker order (core.Batch.Merge: exact integer sums, so the merged
// batch is byte-identical for any worker count) and accumulates the
// per-worker diagnostics.
func (bs *blockSampler) foldWorkers(batch *core.Batch, ws []*samplerWorker) {
	if bs.wBlocks == nil {
		bs.wBlocks = make([]int64, len(ws))
		bs.wTuples = make([]int64, len(ws))
	}
	for i, w := range ws {
		if err := batch.Merge(scanBatch(w.kern.fold(), 0)); err != nil {
			panic(err) // candidate domains match by construction
		}
		if i < len(bs.wBlocks) {
			bs.wBlocks[i] += w.blocks
			bs.wTuples[i] += w.tuples
		}
	}
}

// samplerTask is one worker's share of a chunk's read list.
type samplerTask struct {
	w      *samplerWorker
	blocks []int
}

// samplerWorker is one worker's private state for a round: its block
// accumulator — the round's mergeable partial, folded and merged at round
// end, whose tally the planner commits at each chunk barrier — plus
// diagnostics. Workers share no mutable state: they read immutable plan
// data, write their own fields, and bump the sampler's atomic I/O
// counters.
type samplerWorker struct {
	bs     *blockSampler
	kern   *scanKernel
	blocks int64
	tuples int64
}

// newWorkers allocates the round's worker states.
func (bs *blockSampler) newWorkers(n int) []*samplerWorker {
	ws := make([]*samplerWorker, n)
	for i := range ws {
		ws[i] = &samplerWorker{bs: bs, kern: bs.plan.newKernel(bs.kernels, -1, true)}
	}
	return ws
}

// process reads the given blocks, accumulating into the worker's private
// state. Runs on a pool goroutine (or inline for workers=1); the only
// shared writes are the atomic I/O counters.
func (w *samplerWorker) process(blocks []int) {
	bs := w.bs
	for _, b := range blocks {
		lo, hi := bs.src.BlockSpan(b)
		w.kern.block(lo, hi)
		n := int64(hi - lo)
		w.blocks++
		w.tuples += n
		if w.kern.vectorized() {
			atomic.AddInt64(&bs.stats.KernelBlocks, 1)
		}
		atomic.AddInt64(&bs.stats.TuplesRead, n)
		atomic.AddInt64(&bs.stats.BlocksRead, 1)
	}
}

// candidateExhausted reports whether every block containing candidate i
// has been consumed.
func (bs *blockSampler) candidateExhausted(i int) bool {
	cb := bs.cand.candidateBlocks(i)
	if cb == nil {
		return bs.allConsumed()
	}
	for w := 0; w < cb.NumWords(); w++ {
		if cb.Word(w)&^bs.consumed.Word(w) != 0 {
			return false
		}
	}
	return true
}
