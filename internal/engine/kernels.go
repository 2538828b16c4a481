package engine

import "fastmatch/internal/histogram"

// The engine's one block accumulator.
//
// The five executors differ only in which blocks they select; what
// happens to a selected block — map each row to (candidate, group),
// count it — is scanKernel.block for all of them: scanExec.scanRange
// calls it for the exact pass, blockSampler.readBlock for sampling rounds.
//
// The scalar row loop pays, per row, two interface dispatches (groupOf,
// candidateOf), a lazy-histogram nil check, and a float64 histogram
// update. A vectorized kernel instead processes one block's aliased code
// slices in a batch against a flat per-worker int64 accumulator of
// candidates × groups cells, then folds the accumulator into the
// histograms once (histogram.AddN). Counts are non-negative integers well
// below 2^53, so n folded at once equals n scalar Adds bit-for-bit:
// results are byte-identical to the scalar loop, and IOStats.KernelBlocks
// is the only observable difference.
//
// Kernel shapes follow the planner's mapper shapes:
//
//   - fused single/single: candidate = Z code, group = X code — one
//     branch-free multiply-add per row (plus the known-candidate remap
//     variant, whose table is total by construction).
//   - multi-column groups: the composite group code is built per block
//     with one strided pass per column into a scratch buffer.
//   - binned measure groups: bins resolved per block into the scratch
//     buffer (-1 = out of range, dropped at accumulation).
//   - predicate candidates: per candidate, the compiled matcher sweeps
//     the block against the precomputed group buffer.
//
// A sampling round's kernel also tallies rows per candidate for the
// sampler's chunk commits. Each shape counts that tally inside its
// accumulate loop (one increment beside the acc increment), in a twin of
// the loop selected when the tally is on; the exact scan runs the
// tally-free loops, so the tally costs it nothing.
//
// The scalar loop is the single fallback: plans no shape covers (see
// Plan.kernelShape), the keep-one target pass, and runs with
// Options.DisableScanKernels — the reference the equivalence suite and
// BenchmarkScanKernels compare the kernels against.

// maxKernelCells caps the flat accumulator (candidates × groups) at 32
// MiB of int64 cells; larger shapes take the scalar loop, whose
// lazily-allocated histograms handle sparse giants better anyway.
const maxKernelCells = 1 << 22

// kernelShape is a plan's vectorizable form: the aliased full-column
// slices the kernels index directly. Resolved once at Prepare and shared
// read-only by every run of the plan.
type kernelShape struct {
	// Candidate side: exactly one of (zc) / (matchers) is set.
	zc       []uint32             // columnCandidates: Z codes
	remap    []int                // nil = identity; else total, values ≥ 0
	matchers []func(row int) bool // predicateCandidates: compiled matchers

	// Group side: exactly one of (xc) / (mg) / (binned) is set.
	xc     []uint32 // singleGroups: X codes
	mg     *multiGroups
	binned binnedGroups
}

// kernelShape resolves the plan's vectorizable form, or nil when only the
// scalar loop can run it: a Filter is present (the closure may be
// stateful and its per-row call order is part of the observable
// contract), a mapper no kernel knows, or an accumulator over
// maxKernelCells. This is the one eligibility test — Explain reports its
// outcome, newKernel acts on it.
func (p *Plan) kernelShape() *kernelShape {
	groups, nCand := p.grp.groups(), p.cand.numCandidates()
	if p.query.Filter != nil || groups <= 0 || nCand <= 0 || int64(groups)*int64(nCand) > maxKernelCells {
		return nil
	}
	sh := &kernelShape{}
	switch g := p.grp.(type) {
	case singleGroups:
		sh.xc = g.codes
	case *multiGroups:
		sh.mg = g
	case binnedGroups:
		sh.binned = g
	default:
		return nil
	}
	if p.multi != nil {
		sh.matchers = p.multi.matchers
	} else if cc, ok := p.cand.(*columnCandidates); ok {
		sh.zc = cc.codes
		sh.remap = cc.remap
	} else {
		return nil
	}
	return sh
}

// scanKernel is one worker's accumulation state. Instances are never
// shared: everything here is written without synchronization.
type scanKernel struct {
	p      *Plan
	groups int
	// hists are the per-candidate histograms, allocated on a candidate's
	// first counted row: the scalar loop adds to them row by row, fold
	// drains acc into them. A candidate with no counted row stays nil.
	hists []*histogram.Histogram
	// keep ≥ 0 counts that candidate only (the target pass).
	keep int

	// Vectorized state; acc == nil selects the scalar loop. The shape is
	// held by value so the kernels' loops index its slices directly.
	kernelShape
	acc  []int64 // [candidate*groups + group]
	gbuf []int32 // per-block group scratch; nil on the fused path

	// cnt, when non-nil, tallies the rows counted per candidate since the
	// caller last drained it, counted inside the accumulate loops: the
	// sampler commits it into its deficits at every chunk boundary.
	cnt []int64

	multiBuf []int // scalar-loop scratch for overlapping candidates
}

// newKernel builds a worker's accumulator. It is vectorized when kernels
// is set, every candidate is kept, and the plan has a kernel shape; tally
// adds the per-candidate row tally, which selects each shape's tallying
// loop. Without it (the exact scan) the loops carry no tally code.
func (p *Plan) newKernel(kernels bool, keep int, tally bool) *scanKernel {
	nCand := p.cand.numCandidates()
	k := &scanKernel{p: p, groups: p.grp.groups(), keep: keep, hists: make([]*histogram.Histogram, nCand)}
	if tally {
		k.cnt = make([]int64, nCand)
	}
	if kernels && keep < 0 && p.shape != nil {
		k.kernelShape = *p.shape
		k.acc = make([]int64, k.groups*nCand)
		if k.xc == nil || k.matchers != nil {
			k.gbuf = make([]int32, p.blockSize)
		}
	}
	return k
}

// vectorized reports whether block runs a kernel (IOStats.KernelBlocks
// counts those blocks) rather than the scalar loop.
func (k *scanKernel) vectorized() bool { return k.acc != nil }

// block accumulates rows [lo, hi) — one storage block. With the tally on,
// each shape also counts the block's rows per candidate in the same loop;
// the exact scan runs with it off, through the tally-free loops.
func (k *scanKernel) block(lo, hi int) {
	if k.acc == nil {
		k.scalar(lo, hi)
		return
	}
	g, cnt := k.groups, k.cnt
	switch {
	case k.gbuf == nil && k.remap == nil && cnt == nil:
		// Fused single/single: group and candidate are direct code
		// lookups; no scratch, no branches beyond the remap variant.
		for row := lo; row < hi; row++ {
			k.acc[int(k.zc[row])*g+int(k.xc[row])]++
		}
	case k.gbuf == nil && k.remap == nil:
		for row := lo; row < hi; row++ {
			z := k.zc[row]
			k.acc[int(z)*g+int(k.xc[row])]++
			cnt[z]++
		}
	case k.gbuf == nil && cnt == nil:
		for row := lo; row < hi; row++ {
			k.acc[k.remap[k.zc[row]]*g+int(k.xc[row])]++
		}
	case k.gbuf == nil:
		for row := lo; row < hi; row++ {
			id := k.remap[k.zc[row]]
			k.acc[id*g+int(k.xc[row])]++
			cnt[id]++
		}
	case k.matchers != nil:
		gb := k.groupCodes(lo, hi)
		for c, m := range k.matchers {
			base, n := c*g, int64(0)
			for i, gg := range gb {
				if gg >= 0 && m(lo+i) {
					k.acc[base+int(gg)]++
					n++
				}
			}
			if cnt != nil {
				cnt[c] += n
			}
		}
	case cnt == nil:
		gb := k.groupCodes(lo, hi)
		for i, gg := range gb {
			if gg < 0 {
				continue
			}
			id := int(k.zc[lo+i])
			if k.remap != nil {
				id = k.remap[id]
			}
			k.acc[id*g+int(gg)]++
		}
	default:
		gb := k.groupCodes(lo, hi)
		for i, gg := range gb {
			if gg < 0 {
				continue
			}
			id := int(k.zc[lo+i])
			if k.remap != nil {
				id = k.remap[id]
			}
			k.acc[id*g+int(gg)]++
			cnt[id]++
		}
	}
}

// groupCodes resolves the block's group codes into the scratch buffer
// (-1 = the row has no group).
func (k *scanKernel) groupCodes(lo, hi int) []int32 {
	gb := k.gbuf[:hi-lo]
	switch {
	case k.xc != nil:
		for i := range gb {
			gb[i] = int32(k.xc[lo+i])
		}
	case k.mg != nil:
		for i := range gb {
			gb[i] = 0
		}
		for ci, codes := range k.mg.codes {
			stride := int32(k.mg.strides[ci])
			for i := range gb {
				gb[i] += int32(codes[lo+i]) * stride
			}
		}
	default:
		for i := range gb {
			if bin, ok := k.binned.binner.Bin(k.binned.values[lo+i]); ok {
				gb[i] = int32(bin)
			} else {
				gb[i] = -1
			}
		}
	}
	return gb
}

// scalar is the per-row reference loop. Filter runs first on every row,
// in row order.
func (k *scanKernel) scalar(lo, hi int) {
	filter, grp, cand, multi := k.p.query.Filter, k.p.grp, k.p.cand, k.p.multi
	for row := lo; row < hi; row++ {
		if filter != nil && !filter(row) {
			continue
		}
		g := grp.groupOf(row)
		if g < 0 {
			continue
		}
		if multi != nil {
			// All-matches membership, for full passes and the keep-one
			// target pass alike: a predicate candidate's true histogram
			// includes every row satisfying it, even rows an earlier
			// overlapping predicate also matches.
			k.multiBuf = multi.candidatesOf(row, k.multiBuf[:0])
			for _, id := range k.multiBuf {
				k.add(id, g)
			}
			continue
		}
		if id := cand.candidateOf(row); id >= 0 {
			k.add(id, g)
		}
	}
}

func (k *scanKernel) add(id, g int) {
	if k.keep >= 0 && id != k.keep {
		return
	}
	if k.hists[id] == nil {
		k.hists[id] = histogram.New(k.groups)
	}
	k.hists[id].Add(g)
	if k.cnt != nil {
		k.cnt[id]++
	}
}

// fold drains the accumulator into the histograms and returns them. The
// accumulator is zeroed so a second fold is a no-op.
func (k *scanKernel) fold() []*histogram.Histogram {
	for i, n := range k.acc {
		if n == 0 {
			continue
		}
		id := i / k.groups
		if k.hists[id] == nil {
			k.hists[id] = histogram.New(k.groups)
		}
		k.hists[id].AddN(i%k.groups, float64(n))
		k.acc[i] = 0
	}
	return k.hists
}
