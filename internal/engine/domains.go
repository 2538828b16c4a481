// Package engine implements the FastMatch system of Section 4: the I/O
// manager, sampling engine, and statistics engine wired around the
// internal/core HistSim algorithm, with the AnyActive block-selection
// policy, asynchronous lookahead marking, and the Scan / ScanMatch /
// SyncMatch / FastMatch executor variants compared in the evaluation.
package engine

import (
	"fmt"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
)

// candidates is a plan's candidate domain. Block selection needs one
// fact per candidate, the blocks that may hold its rows (§4.1), and the
// kernels map rows to candidates from one of two sources: the Z
// column's codes, or compiled predicates (Appendix A.1.2). Every slice
// aliases storage that is read-only after planning, so one value serves
// concurrent runs.
type candidates struct {
	// blocks[i] is the set of blocks that may hold candidate i's rows;
	// every candidate has one. AnyActive reads it per block (Algorithm
	// 2) and a word at a time (Algorithm 3).
	blocks []*bitmap.Bitset
	// labels names the candidates; nil when they are the Z column's
	// values in code order, named by its dictionary.
	labels []string

	// Exactly one source is set: the Z column with its codes, or the
	// compiled matchers.
	col   colstore.ColumnReader
	zc    []uint32
	remap []int // Z code -> candidate id; nil = identity, else total
	// matchers[i] reports whether a row satisfies predicate i. A row may
	// match several predicates; the kernels count it once for each, and
	// HistSim's Holm–Bonferroni machinery is agnostic to the induced
	// dependence.
	matchers []func(row int) bool
}

// label names candidate i.
func (c *candidates) label(i int) string {
	if c.labels != nil {
		return c.labels[i]
	}
	return c.col.Dictionary().Value(uint32(i))
}

// newColumnCandidates derives candidates from the distinct values of one
// categorical column, each value's block set read from the column's
// bitmap index. With known set, the candidates are the known values in
// order plus a dummy that absorbs every other value, implementing the
// unknown-candidate-domain extension of Appendix A.1.5.
func newColumnCandidates(col colstore.ColumnReader, rows int, idx *bitmap.Index, known []string) (candidates, error) {
	card := col.Cardinality()
	c := candidates{col: col, zc: col.Codes(0, rows)}
	if len(known) == 0 {
		c.blocks = make([]*bitmap.Bitset, card)
		for v := range c.blocks {
			bs, err := idx.ValueBitset(uint32(v))
			if err != nil {
				return candidates{}, err
			}
			c.blocks[v] = bs
		}
		return c, nil
	}
	dummy := len(known)
	c.remap = make([]int, card)
	for v := range c.remap {
		c.remap[v] = -1 // unassigned
	}
	c.blocks = make([]*bitmap.Bitset, dummy+1)
	for i, name := range known {
		code, ok := col.Dictionary().Code(name)
		if !ok {
			return candidates{}, fmt.Errorf("engine: known candidate %q not in column %q", name, col.ColumnName())
		}
		if c.remap[code] != -1 {
			return candidates{}, fmt.Errorf("engine: duplicate known candidate %q", name)
		}
		c.remap[code] = i
		bs, err := idx.ValueBitset(code)
		if err != nil {
			return candidates{}, err
		}
		c.blocks[i] = bs
	}
	c.blocks[dummy] = bitmap.NewBitset(idx.NumBlocks())
	for v, id := range c.remap {
		if id != -1 {
			continue
		}
		c.remap[v] = dummy
		vb, err := idx.ValueBitset(uint32(v))
		if err != nil {
			return candidates{}, err
		}
		if err := c.blocks[dummy].Or(vb); err != nil {
			return candidates{}, err
		}
	}
	c.labels = append(known[:dummy:dummy], "<other>")
	return c, nil
}

// newPredicateCandidates derives one candidate per boolean predicate
// over attribute values (Appendix A.1.2), each compiled once into a row
// matcher and a block set from the columns' bitmap indexes.
func (e *Engine) newPredicateCandidates(preds []bitmap.Predicate) (candidates, error) {
	if len(preds) == 0 {
		return candidates{}, fmt.Errorf("engine: no candidate predicates")
	}
	var c candidates
	for _, p := range preds {
		m, bs, err := e.compilePredicate(p)
		if err != nil {
			return candidates{}, err
		}
		c.matchers = append(c.matchers, m)
		c.blocks = append(c.blocks, bs)
		c.labels = append(c.labels, p.String())
	}
	return c, nil
}

// groups is a plan's histogram groups: a row maps to one group code, or
// to none (a binned value outside the bin range). The kernels map rows
// from exactly one source: one categorical X column's codes, several
// columns' codes with their strides (the cross product of Appendix
// A.1.3), or a continuous measure's values with their binner (Appendix
// A.1.4). Every slice aliases read-only storage, captured once at plan
// time so the kernels index it directly.
type groups struct {
	n    int                     // the group count |V_X|
	cols []colstore.ColumnReader // the X columns; nil when binned

	xc      []uint32   // one X column's codes
	mc      [][]uint32 // several X columns' codes, per column
	strides []int      // mc's per-column strides in the composite code
	values  []float64  // the binned measure's values
	binner  *colstore.Binner
}

func newSingleGroups(col colstore.ColumnReader, rows int) groups {
	return groups{n: col.Cardinality(), cols: []colstore.ColumnReader{col}, xc: col.Codes(0, rows)}
}

// newMultiGroups estimates the support as the product of the columns'
// cardinalities; overestimation only loosens the Theorem-1 bound, which
// stays correct.
func newMultiGroups(cols []colstore.ColumnReader, rows int) (groups, error) {
	g := groups{n: 1, cols: cols, strides: make([]int, len(cols))}
	for i := len(cols) - 1; i >= 0; i-- {
		g.strides[i] = g.n
		g.n *= cols[i].Cardinality()
		if g.n <= 0 || g.n > 1<<24 {
			return groups{}, fmt.Errorf("engine: composite group support too large")
		}
	}
	for _, c := range cols {
		g.mc = append(g.mc, c.Codes(0, rows))
	}
	return g, nil
}

// newBinnedGroups drops rows outside the bin range, mirroring the
// paper's preprocessing of outlier values.
func newBinnedGroups(m colstore.MeasureReader, rows int, binner *colstore.Binner) groups {
	return groups{n: binner.NumBins(), values: m.Values(0, rows), binner: binner}
}

// labels renders every group's label: a dictionary value, the values of
// a composite code joined by "|", or a bin's range.
func (g *groups) labels() []string {
	out := make([]string, g.n)
	for i := range out {
		switch {
		case g.binner != nil:
			out[i] = g.binner.Label(i)
		case g.mc == nil:
			out[i] = g.cols[0].Dictionary().Value(uint32(i))
		default:
			for ci, c := range g.cols {
				if ci > 0 {
					out[i] += "|"
				}
				out[i] += c.Dictionary().Value(uint32(i / g.strides[ci] % c.Cardinality()))
			}
		}
	}
	return out
}

// compilePredicate compiles a predicate tree once into a direct row
// matcher against source columns (no per-row map allocation) and its
// block set: the blocks that may hold a matching row. A leaf's set is
// its value's bitset in the column's index, exact presence; AND
// intersects and OR unions its children's sets, so a leaf or an OR of
// leaves is exact and an AND a superset. The index's bitsets are shared
// and never written: combining happens on a clone. A nil node, an
// unknown node type, an empty AND/OR, an unknown column and an
// out-of-range code are errors.
func (e *Engine) compilePredicate(p bitmap.Predicate) (func(row int) bool, *bitmap.Bitset, error) {
	switch q := p.(type) {
	case *bitmap.ValuePred:
		if q != nil {
			return e.compileLeaf(q)
		}
	case *bitmap.AndPred:
		if q != nil {
			kids, bs, err := e.compileAll(q.Children, (*bitmap.Bitset).And)
			return func(row int) bool {
				for _, k := range kids {
					if !k(row) {
						return false
					}
				}
				return true
			}, bs, err
		}
	case *bitmap.OrPred:
		if q != nil {
			kids, bs, err := e.compileAll(q.Children, (*bitmap.Bitset).Or)
			return func(row int) bool {
				for _, k := range kids {
					if k(row) {
						return true
					}
				}
				return false
			}, bs, err
		}
	}
	return nil, nil, fmt.Errorf("engine: nil or unsupported predicate node %T", p)
}

func (e *Engine) compileLeaf(q *bitmap.ValuePred) (func(row int) bool, *bitmap.Bitset, error) {
	col, err := e.src.ColumnByName(q.Column)
	if err != nil {
		return nil, nil, err
	}
	idx, err := e.Index(q.Column)
	if err != nil {
		return nil, nil, err
	}
	bs, err := idx.ValueBitset(q.Code)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: predicate %s: %w", q, err)
	}
	// Capture the aliased codes once: the matcher runs per row in
	// executor hot loops, where an interface call per row would cost.
	codes := col.Codes(0, e.src.NumRows())
	code := q.Code
	return func(row int) bool { return codes[row] == code }, bs, nil
}

// compileAll compiles an AND/OR node's children and folds their block
// sets with combine into a fresh bitset.
func (e *Engine) compileAll(ps []bitmap.Predicate, combine func(dst, src *bitmap.Bitset) error) ([]func(row int) bool, *bitmap.Bitset, error) {
	if len(ps) == 0 {
		return nil, nil, fmt.Errorf("engine: empty AND/OR predicate")
	}
	out := make([]func(row int) bool, len(ps))
	var set *bitmap.Bitset
	for i, p := range ps {
		m, bs, err := e.compilePredicate(p)
		if err != nil {
			return nil, nil, err
		}
		out[i] = m
		if set == nil {
			set = bs.Clone()
		} else if err := combine(set, bs); err != nil {
			return nil, nil, err
		}
	}
	return out, set, nil
}
