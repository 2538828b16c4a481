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

// groupMapper describes a histogram's groups: a row maps to one group
// code, or to none (e.g. a continuous value outside the bin range). The
// kernels do the mapping from the mapper's aliased storage (see
// kernelShape).
type groupMapper interface {
	groups() int
	// labelOf renders a human-readable group label.
	labelOf(g int) string
	// kind names the mapper shape for Explain.
	kind() string
}

// singleGroups maps groups from one categorical column. codes aliases
// the full column storage and card caches the cardinality, both captured
// once at plan time so the kernels index the codes directly.
type singleGroups struct {
	col   colstore.ColumnReader
	codes []uint32
	card  int
}

func newSingleGroups(col colstore.ColumnReader, rows int) singleGroups {
	return singleGroups{col: col, codes: col.Codes(0, rows), card: col.Cardinality()}
}

func (s singleGroups) groups() int          { return s.card }
func (s singleGroups) labelOf(g int) string { return s.col.Dictionary().Value(uint32(g)) }
func (s singleGroups) kind() string         { return "single" }

// multiGroups maps groups from the cross product of several categorical
// columns (Appendix A.1.3). The support is estimated as the product of the
// columns' cardinalities; overestimation only loosens the Theorem-1 bound,
// which stays correct.
type multiGroups struct {
	cols    []colstore.ColumnReader
	codes   [][]uint32 // per column, aliasing full column storage
	strides []int
	total   int
}

func newMultiGroups(cols []colstore.ColumnReader, rows int) (*multiGroups, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("engine: no grouping columns")
	}
	mg := &multiGroups{cols: cols, strides: make([]int, len(cols)), total: 1}
	for i := len(cols) - 1; i >= 0; i-- {
		mg.strides[i] = mg.total
		mg.total *= cols[i].Cardinality()
		if mg.total <= 0 || mg.total > 1<<24 {
			return nil, fmt.Errorf("engine: composite group support too large")
		}
	}
	for _, c := range cols {
		mg.codes = append(mg.codes, c.Codes(0, rows))
	}
	return mg, nil
}

func (m *multiGroups) groups() int  { return m.total }
func (m *multiGroups) kind() string { return "multi" }

func (m *multiGroups) labelOf(g int) string {
	label := ""
	for i, c := range m.cols {
		code := uint32(g / m.strides[i] % c.Cardinality())
		if i > 0 {
			label += "|"
		}
		label += c.Dictionary().Value(code)
	}
	return label
}

// binnedGroups maps groups by binning a continuous measure column
// (Appendix A.1.4). Rows outside the bin range are dropped, mirroring the
// paper's preprocessing of outlier values.
type binnedGroups struct {
	m      colstore.MeasureReader
	values []float64 // aliases full column storage (read-only)
	binner *colstore.Binner
}

func newBinnedGroups(m colstore.MeasureReader, rows int, binner *colstore.Binner) binnedGroups {
	return binnedGroups{m: m, values: m.Values(0, rows), binner: binner}
}

func (b binnedGroups) groups() int  { return b.binner.NumBins() }
func (b binnedGroups) kind() string { return "binned" }

func (b binnedGroups) labelOf(g int) string { return b.binner.Label(g) }

// candidateMapper describes the candidate domain and answers
// block-level containment questions for AnyActive selection. The kernels
// map rows to candidates from the mapper's aliased storage (see
// kernelShape).
type candidateMapper interface {
	numCandidates() int
	// markAnyActive sets mark[i] iff block start+i may contain a tuple
	// for an active candidate (sound: never misses a block that does),
	// overwriting every entry: Algorithm 3's word-major evaluation.
	markAnyActive(active []int, start int, mark []bool)
	// blockAnyActive is the naive single-block probe of Algorithm 2.
	blockAnyActive(active []int, b int) bool
	// candidateBlocks returns the bitset of blocks containing candidate i.
	candidateBlocks(i int) *bitmap.Bitset
	labelOf(i int) string
	// kind names the mapper shape for Explain.
	kind() string
}

// columnCandidates derives candidates from the distinct values of one
// categorical column, backed by a bitmap.Index. An optional dummy
// candidate absorbs every value outside a known subset, implementing the
// unknown-candidate-domain extension of Appendix A.1.5. All fields are
// read-only after construction, so one instance may serve concurrent runs.
type columnCandidates struct {
	col   colstore.ColumnReader
	codes []uint32 // aliases full column storage (read-only)
	idx   *bitmap.Index
	remap []int // value code -> candidate id (identity when dummy unused)
	// candValue[i] = value code for candidate i; -1 for the dummy.
	candValue []int
	dummyID   int // -1 when absent
	dummyBits *bitmap.Bitset
	// blocks[i] = the blocks containing candidate i (the dummy's is
	// dummyBits), for word-major lookahead marking.
	blocks []*bitmap.Bitset
}

func newColumnCandidates(col colstore.ColumnReader, rows int, idx *bitmap.Index, known []string) (*columnCandidates, error) {
	card := col.Cardinality()
	cc := &columnCandidates{col: col, codes: col.Codes(0, rows), idx: idx, dummyID: -1}
	if len(known) == 0 {
		cc.remap = nil // identity
		cc.candValue = make([]int, card)
		for v := range cc.candValue {
			cc.candValue[v] = v
		}
		return cc, cc.indexBlocks()
	}
	cc.remap = make([]int, card)
	for v := range cc.remap {
		cc.remap[v] = -2 // unassigned
	}
	for i, name := range known {
		code, ok := col.Dictionary().Code(name)
		if !ok {
			return nil, fmt.Errorf("engine: known candidate %q not in column %q", name, col.ColumnName())
		}
		if cc.remap[code] != -2 {
			return nil, fmt.Errorf("engine: duplicate known candidate %q", name)
		}
		cc.remap[code] = i
		cc.candValue = append(cc.candValue, int(code))
	}
	cc.dummyID = len(known)
	cc.candValue = append(cc.candValue, -1)
	cc.dummyBits = bitmap.NewBitset(idx.NumBlocks())
	for v := 0; v < card; v++ {
		if cc.remap[v] == -2 {
			cc.remap[v] = cc.dummyID
			vb, err := idx.ValueBitset(uint32(v))
			if err != nil {
				return nil, err
			}
			if err := cc.dummyBits.Or(vb); err != nil {
				return nil, err
			}
		}
	}
	return cc, cc.indexBlocks()
}

// indexBlocks resolves every candidate's block bitset from the index.
func (cc *columnCandidates) indexBlocks() error {
	cc.blocks = make([]*bitmap.Bitset, len(cc.candValue))
	for i, v := range cc.candValue {
		if i == cc.dummyID {
			cc.blocks[i] = cc.dummyBits
			continue
		}
		bs, err := cc.idx.ValueBitset(uint32(v))
		if err != nil {
			return err
		}
		cc.blocks[i] = bs
	}
	return nil
}

func (cc *columnCandidates) numCandidates() int { return len(cc.candValue) }
func (cc *columnCandidates) kind() string       { return "column" }

func (cc *columnCandidates) markAnyActive(active []int, start int, mark []bool) {
	bitmap.MarkAny(cc.blocks, active, start, mark)
}

func (cc *columnCandidates) blockAnyActive(active []int, b int) bool {
	for _, id := range active {
		if id == cc.dummyID {
			if cc.dummyBits != nil && cc.dummyBits.Get(b) {
				return true
			}
			continue
		}
		if cc.idx.Contains(uint32(cc.candValue[id]), b) {
			return true
		}
	}
	return false
}

func (cc *columnCandidates) candidateBlocks(i int) *bitmap.Bitset { return cc.blocks[i] }

func (cc *columnCandidates) labelOf(i int) string {
	if i == cc.dummyID {
		return "<other>"
	}
	return cc.col.Dictionary().Value(uint32(cc.candValue[i]))
}

// predicateCandidates derives candidates from boolean predicates over
// attribute values (Appendix A.1.2). Each candidate's block set comes
// from the columns' bitmap indexes (§4.1). A row belongs to every
// predicate it satisfies; HistSim's Holm–Bonferroni machinery is
// agnostic to the induced dependence. A row may match several
// predicates; the kernels count it once for each. Read-only after
// construction.
type predicateCandidates struct {
	matchers []func(row int) bool
	blocks   []*bitmap.Bitset // per candidate: blocks that may contain it
	labels   []string
}

func (e *Engine) newPredicateCandidates(preds []bitmap.Predicate) (*predicateCandidates, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("engine: no candidate predicates")
	}
	pc := &predicateCandidates{}
	for _, p := range preds {
		m, bs, err := e.compilePredicate(p)
		if err != nil {
			return nil, err
		}
		pc.matchers = append(pc.matchers, m)
		pc.blocks = append(pc.blocks, bs)
		pc.labels = append(pc.labels, p.String())
	}
	return pc, nil
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

func (pc *predicateCandidates) numCandidates() int { return len(pc.matchers) }
func (pc *predicateCandidates) kind() string       { return "predicates" }

func (pc *predicateCandidates) markAnyActive(active []int, start int, mark []bool) {
	bitmap.MarkAny(pc.blocks, active, start, mark)
}

func (pc *predicateCandidates) blockAnyActive(active []int, b int) bool {
	for _, id := range active {
		if b < pc.blocks[id].Len() && pc.blocks[id].Get(b) {
			return true
		}
	}
	return false
}

func (pc *predicateCandidates) candidateBlocks(i int) *bitmap.Bitset { return pc.blocks[i] }

func (pc *predicateCandidates) labelOf(i int) string { return pc.labels[i] }
