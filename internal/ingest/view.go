package ingest

import (
	"sync"

	"fastmatch/internal/colstore"
)

// TableView is a snapshot-isolated, immutable read view of a
// WritableTable at one generation, presented through the engine's
// colstore.Reader seam so the planner, all five executors, and the
// bitmap index work unmodified over live data.
//
// Row data is the table's append-only columnar spine: the embedded
// Table aliases each column's [0, rows) prefix, which later appends
// never mutate (they only extend, and a slice reallocation leaves the
// old backing array untouched). Compaction only writes files, so a view
// stays valid for as long as anything holds it.
//
// Block statistics come from the table's one summary (see summary): a
// column's presence words are the summary's, masked to the view's sealed
// blocks, plus the block-summary builder run over the unsealed tail —
// fresh words per call, which bitmap.Build adopts as the index, so the
// view needs no index path of its own.
type TableView struct {
	*colstore.Table // the spine prefix, zero-copy
	sum             *summary
	sealed          int // blocks covered by the summary at this generation
	gen             uint64

	rangesOnce sync.Once
	ranges     *colstore.TableBlockStats // measure ranges of the sealed blocks
}

// Compile-time conformance: the engine consumes views through these.
var (
	_ colstore.Reader           = (*TableView)(nil)
	_ colstore.BlockStatsReader = (*TableView)(nil)
)

// Release is a no-op: views hold no resources beyond memory the garbage
// collector reclaims. It remains for callers written when views were
// refcounted.
func (v *TableView) Release() {}

// Generation identifies the data version this view froze; it increases
// with every acked append, so serving layers use it as a cache key.
func (v *TableView) Generation() uint64 { return v.gen }

// Storage implements colstore.Reader: the spine lives on the heap.
func (v *TableView) Storage() colstore.StorageStats {
	st := v.Table.Storage()
	st.Backend = "ingest"
	return st
}

// BlockStats implements colstore.BlockStatsReader: exact statistics for
// the sealed blocks, exact presence for the unsealed tail, and unknown
// measure ranges for the tail (which therefore never prunes).
func (v *TableView) BlockStats() colstore.BlockStats { return viewStats{v} }

// viewStats answers a view's block-statistics questions, extending the
// table's summary over newly sealed blocks on first use.
type viewStats struct{ v *TableView }

// MeasureRange implements colstore.BlockStats.
func (s viewStats) MeasureRange(measure string, b int) (lo, hi float64, ok bool) {
	v := s.v
	v.rangesOnce.Do(func() { v.ranges = v.sum.measureRanges(v.Table, v.sealed) })
	return v.ranges.MeasureRange(measure, b)
}

// PresenceWords implements colstore.BlockStats: the summary's sealed
// prefix plus the builder over the tail, in fresh words at the view's
// own stride. It declines for a column the summary keeps no words for
// (past colstore.PresenceFits), leaving Build to run the builder.
func (s viewStats) PresenceWords(column string) ([]uint64, int, bool) {
	v := s.v
	col, err := v.Column(column)
	if err != nil {
		return nil, 0, false
	}
	nb := v.NumBlocks()
	wpv := (nb + 63) / 64
	words := v.sum.presence(v.Table, v.sealed, column, col.Cardinality()*wpv, wpv)
	if words == nil {
		return nil, 0, false
	}
	tail := colstore.TableBlockStats{Stride: wpv, Presence: map[string][]uint64{column: words}}
	if tail.Summarize(v.Table, v.sealed, nb) != nil {
		return nil, 0, false // unreachable: spine codes are interned
	}
	return words, wpv, true
}

// summary is the table's one block summary, exact over the first
// `blocks` sealed blocks: per column, value-major presence words at a
// capacity stride that doubles when the sealed blocks outgrow it; per
// measure, per-block min/max. colstore's block-summary builder fills it.
// Appends and seals do no summary work. A view's first BlockStats use
// extends the summary over the blocks sealed since the last extension,
// reading them from the view's spine prefix (identical in every later
// view), under the summary's own mutex — never the table's.
type summary struct {
	mu     sync.Mutex
	blocks int
	st     colstore.TableBlockStats // no presence entry: past the cap
}

func newSummary() *summary {
	return &summary{st: colstore.TableBlockStats{
		Presence: make(map[string][]uint64),
		Lo:       make(map[string][]float64),
		Hi:       make(map[string][]float64),
	}}
}

// extend summarizes blocks [s.blocks, sealed) of tbl, whose first sealed
// blocks are sealed and full. Caller holds s.mu.
func (s *summary) extend(tbl *colstore.Table, sealed int) {
	if sealed <= s.blocks {
		return
	}
	if need := (sealed + 63) / 64; need > s.st.Stride {
		stride := max(2*s.st.Stride, need)
		for name, old := range s.st.Presence {
			words := make([]uint64, len(old)/s.st.Stride*stride)
			for v := 0; v*stride < len(words); v++ {
				copy(words[v*stride:], old[v*s.st.Stride:(v+1)*s.st.Stride])
			}
			s.st.Presence[name] = words
		}
		s.st.Stride = stride
	}
	for _, name := range tbl.Columns() {
		col, _ := tbl.Column(name)
		if !colstore.PresenceFits(col.Cardinality(), sealed) { // for good: both only grow
			delete(s.st.Presence, name)
			continue
		}
		words := s.st.Presence[name]
		s.st.Presence[name] = append(words, make([]uint64, col.Cardinality()*s.st.Stride-len(words))...)
	}
	for _, name := range tbl.MeasureNames() {
		s.st.Lo[name] = append(s.st.Lo[name], make([]float64, sealed-s.blocks)...)
		s.st.Hi[name] = append(s.st.Hi[name], make([]float64, sealed-s.blocks)...)
	}
	_ = s.st.Summarize(tbl, s.blocks, sealed) // spine codes are interned: in range
	s.blocks = sealed
}

// presence returns fresh words of length n at stride wpv holding the
// column's presence over blocks [0, sealed), or nil when the column is
// past the presence cap.
func (s *summary) presence(tbl *colstore.Table, sealed int, column string, n, wpv int) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.extend(tbl, sealed)
	src, kept := s.st.Presence[column]
	if !kept && s.blocks > 0 {
		return nil
	}
	words := make([]uint64, n)
	// Values past this view's cardinality first appeared after its rows,
	// so they have no bits in its sealed blocks.
	stride := s.st.Stride
	full, rem := sealed>>6, uint(sealed)&63
	for v := 0; v*wpv < n && v*stride < len(src); v++ {
		dst, from := words[v*wpv:], src[v*stride:]
		copy(dst[:full], from)
		if rem != 0 {
			dst[full] = from[full] & (1<<rem - 1)
		}
	}
	return words
}

// measureRanges returns the measures' exact ranges over blocks
// [0, sealed), aliasing the summary's arrays: later extensions only
// write past them.
func (s *summary) measureRanges(tbl *colstore.Table, sealed int) *colstore.TableBlockStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.extend(tbl, sealed)
	st := &colstore.TableBlockStats{Lo: make(map[string][]float64), Hi: make(map[string][]float64)}
	for name, lo := range s.st.Lo {
		st.Lo[name], st.Hi[name] = lo[:sealed:sealed], s.st.Hi[name][:sealed:sealed]
	}
	return st
}
