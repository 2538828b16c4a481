package engine

import "fastmatch/internal/histogram"

// The engine's one block accumulator.
//
// The five executors differ only in which blocks they select; what
// happens to a selected block — map each row to (candidate, group),
// count it — is scanKernel.block for all of them: scanExec.sweep
// calls it for every exact pass (full scans, shard scan segments and
// candidate targets), blockSampler.readBlock for sampling rounds.
//
// A kernel processes one block's aliased code slices in a batch against
// a flat per-worker int64 accumulator of candidates × groups cells, then
// folds the accumulator into the histograms once (histogram.AddN).
// Counts are non-negative integers well below 2^53, so n folded at once
// equals n single float64 Adds bit for bit. The accumulator tests hold
// every shape to a per-row reference loop kept in the tests.
//
// A kernel's shape is its plan's candidate source × group source:
//
//   - fused column × single X: candidate = Z code, group = X code — one
//     multiply-add per row over the block's Z and X codes (plus the
//     known-candidate remap variant, whose table is total by construction).
//   - multi-column groups: the composite group code is built per block
//     with one strided pass per column into a scratch buffer.
//   - binned measure groups: bins resolved per block into the scratch
//     buffer (-1 = out of range, dropped at accumulation).
//   - predicate candidates: per candidate, the compiled matcher sweeps
//     the block against the precomputed group buffer.
//
// Every row loop ranges over slices cut to its block: the only per-row
// bounds checks left index by data (accumulator cell, tally, remap),
// each marked "// bce:", and scripts/bce.sh fails on any other.
//
// A sampling round's kernel also tallies rows per candidate for the
// sampler's chunk commits. Each shape counts that tally inside its
// accumulate loop (one increment beside the acc increment), in a twin of
// the loop selected when the tally is on; the exact scan runs the
// tally-free loops, so the tally costs it nothing.

// maxKernelCells caps a plan's candidates × groups at 32 MiB of int64
// accumulator cells. Prepare rejects larger shapes (PlanTooLargeError):
// the Scan and HistSim paths both allocate every candidate's histogram
// up front, so such a plan would exhaust memory, not run slowly.
const maxKernelCells = 1 << 22

// scanKernel is one worker's accumulation state. Instances are never
// shared: everything here is written without synchronization.
type scanKernel struct {
	// hists are the per-candidate histograms, allocated when fold first
	// drains a non-zero cell of the candidate. A candidate with no
	// counted row stays nil.
	hists []*histogram.Histogram

	// The plan's candidates and groups, copied by value so the loops
	// index their slices directly.
	cand candidates
	grp  groups
	acc  []int64 // [candidate*groups + group]
	gbuf []int32 // per-block group scratch; nil on the fused path

	// cnt, when non-nil, tallies the rows counted per candidate since the
	// caller last drained it, counted inside the accumulate loops: the
	// sampler commits it into its deficits at every chunk boundary.
	cnt []int64
}

// newKernel builds a worker's accumulator; tally adds the per-candidate
// row tally, which selects each shape's tallying loop. Without it (the
// exact passes) the loops carry no tally code.
func (p *Plan) newKernel(tally bool) *scanKernel {
	nCand := len(p.cand.blocks)
	k := &scanKernel{
		hists: make([]*histogram.Histogram, nCand),
		cand:  p.cand,
		grp:   p.grp,
		acc:   make([]int64, p.grp.n*nCand),
	}
	if k.grp.xc == nil || k.cand.matchers != nil {
		k.gbuf = make([]int32, p.blockSize)
	}
	if tally {
		k.cnt = make([]int64, nCand)
	}
	return k
}

// block accumulates rows [lo, hi) — one storage block. With the tally on,
// each shape also counts the block's rows per candidate in the same loop;
// the exact scan runs with it off, through the tally-free loops.
func (k *scanKernel) block(lo, hi int) {
	g, acc, cnt, remap := k.grp.n, k.acc, k.cnt, k.cand.remap
	if k.cand.matchers != nil {
		gb := k.groupCodes(lo, hi)
		for c, m := range k.cand.matchers {
			base, n := c*g, int64(0)
			for i, gg := range gb {
				if gg >= 0 && m(lo+i) {
					acc[base+int(gg)]++ // bce: acc
					n++
				}
			}
			if cnt != nil {
				cnt[c] += n // bce: cnt
			}
		}
		return
	}
	if k.gbuf == nil {
		// Fused single/single: direct code lookups, no scratch.
		zs := k.cand.zc[lo:hi]
		xs := k.grp.xc[lo:hi][:len(zs)]
		switch {
		case remap == nil && cnt == nil:
			for i, z := range zs {
				acc[int(z)*g+int(xs[i])]++ // bce: acc
			}
		case remap == nil:
			for i, z := range zs {
				acc[int(z)*g+int(xs[i])]++ // bce: acc
				cnt[z]++                   // bce: cnt
			}
		case cnt == nil:
			for i, z := range zs {
				acc[remap[z]*g+int(xs[i])]++ // bce: acc, remap
			}
		default:
			for i, z := range zs {
				id := remap[z]         // bce: remap
				acc[id*g+int(xs[i])]++ // bce: acc
				cnt[id]++              // bce: cnt
			}
		}
		return
	}
	gb := k.groupCodes(lo, hi)
	zs := k.cand.zc[lo:hi][:len(gb)]
	if cnt == nil {
		for i, gg := range gb {
			if gg < 0 {
				continue
			}
			id := int(zs[i])
			if remap != nil {
				id = remap[id] // bce: remap
			}
			acc[id*g+int(gg)]++ // bce: acc
		}
		return
	}
	for i, gg := range gb {
		if gg < 0 {
			continue
		}
		id := int(zs[i])
		if remap != nil {
			id = remap[id] // bce: remap
		}
		acc[id*g+int(gg)]++ // bce: acc
		cnt[id]++           // bce: cnt
	}
}

// groupCodes resolves the block's group codes into the scratch buffer
// (-1 = the row has no group).
func (k *scanKernel) groupCodes(lo, hi int) []int32 {
	gb := k.gbuf[:hi-lo]
	switch {
	case k.grp.xc != nil:
		for i, x := range k.grp.xc[lo:hi][:len(gb)] {
			gb[i] = int32(x)
		}
	case k.grp.mc != nil:
		clear(gb)
		cols := k.grp.mc
		strides := k.grp.strides[:len(cols)]
		for ci, codes := range cols {
			stride := int32(strides[ci])
			for i, c := range codes[lo:hi][:len(gb)] {
				gb[i] += int32(c) * stride
			}
		}
	default:
		bins := k.grp.binner
		for i, v := range k.grp.values[lo:hi][:len(gb)] {
			if bin, ok := bins.Bin(v); ok {
				gb[i] = int32(bin)
			} else {
				gb[i] = -1
			}
		}
	}
	return gb
}

// fold drains the accumulator into the histograms and returns them. The
// accumulator is zeroed so a second fold is a no-op.
func (k *scanKernel) fold() []*histogram.Histogram {
	for i, n := range k.acc {
		if n == 0 {
			continue
		}
		id := i / k.grp.n
		if k.hists[id] == nil {
			k.hists[id] = histogram.New(k.grp.n)
		}
		k.hists[id].AddN(i%k.grp.n, float64(n))
		k.acc[i] = 0
	}
	return k.hists
}
