package ingest

import (
	"math"
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
// Block statistics come from the table's one summary (see summary): the
// view's sealed blocks are answered exactly from it, and only the
// unsealed tail is scanned, for presence. bitmap.Build copies those
// presence words, so the view needs no index path of its own.
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
// prefix, masked to this view's sealed blocks, plus a scan of the tail.
// It declines past colstore.PresenceFits, leaving Build to scan.
func (s viewStats) PresenceWords(column string) ([]uint64, int, bool) {
	v := s.v
	col, err := v.Column(column)
	if err != nil {
		return nil, 0, false
	}
	nb, card := v.NumBlocks(), col.Cardinality()
	if !colstore.PresenceFits(card, nb) {
		return nil, 0, false
	}
	wpv := (nb + 63) / 64
	words := make([]uint64, card*wpv)
	if !v.sum.copyPresence(v.Table, v.sealed, column, words, wpv) {
		return nil, 0, false
	}
	for b := v.sealed; b < nb; b++ {
		lo, hi := v.BlockSpan(b)
		w, bit := b>>6, uint64(1)<<(uint(b)&63)
		for _, code := range col.Codes(lo, hi) {
			words[int(code)*wpv+w] |= bit
		}
	}
	return words, wpv, true
}

// summary is the table's one block summary: per column, value-major
// block-presence words; per measure, per-block min/max; both exact over
// the first `blocks` sealed blocks. Appends and seals do no summary
// work. A view's first BlockStats use extends the summary over the
// blocks sealed since the last extension, reading them from the view's
// spine prefix (identical in every later view), under the summary's own
// mutex — never the table's.
type summary struct {
	mu       sync.Mutex
	blocks   int
	presence map[string]*presence
	lo, hi   map[string][]float64
}

// presence is one column's block-presence words, indexed by value code.
type presence struct {
	values [][]uint64
	off    bool // past colstore.PresenceFits: views decline, Build scans
}

func newSummary() *summary {
	return &summary{
		presence: make(map[string]*presence),
		lo:       make(map[string][]float64),
		hi:       make(map[string][]float64),
	}
}

// extend summarizes blocks [s.blocks, sealed) of tbl, whose first sealed
// blocks are sealed and full. Caller holds s.mu.
func (s *summary) extend(tbl *colstore.Table, sealed int) {
	if sealed <= s.blocks {
		return
	}
	for _, name := range tbl.Columns() {
		col, _ := tbl.Column(name)
		p := s.presence[name]
		if p == nil {
			p = &presence{}
			s.presence[name] = p
		}
		if p.off || !colstore.PresenceFits(col.Cardinality(), sealed) {
			p.values, p.off = nil, true
			continue
		}
		for b := s.blocks; b < sealed; b++ {
			lo, hi := tbl.BlockSpan(b)
			w, bit := b>>6, uint64(1)<<(uint(b)&63)
			for _, code := range col.Codes(lo, hi) {
				for int(code) >= len(p.values) {
					p.values = append(p.values, nil)
				}
				if len(p.values[code]) <= w {
					p.values[code] = append(p.values[code], make([]uint64, w+1-len(p.values[code]))...)
				}
				p.values[code][w] |= bit
			}
		}
	}
	for _, name := range tbl.MeasureNames() {
		m, _ := tbl.MeasureByName(name)
		for b := s.blocks; b < sealed; b++ {
			blo, bhi := tbl.BlockSpan(b)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, x := range m.Values(blo, bhi) {
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
			s.lo[name] = append(s.lo[name], lo)
			s.hi[name] = append(s.hi[name], hi)
		}
	}
	s.blocks = sealed
}

// copyPresence ORs the column's presence over blocks [0, sealed) into
// words (value-major, wpv words per value), reporting false when the
// column is past the presence cap.
func (s *summary) copyPresence(tbl *colstore.Table, sealed int, column string, words []uint64, wpv int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.extend(tbl, sealed)
	p := s.presence[column]
	if p == nil {
		return true // nothing sealed yet: the tail scan is the whole answer
	}
	if p.off {
		return false
	}
	// Codes past this view's cardinality first appeared after its rows,
	// so they have no bits in its sealed blocks.
	full, rem := sealed>>6, uint(sealed)&63
	for code := 0; code < len(p.values) && code*wpv < len(words); code++ {
		src, dst := p.values[code], words[code*wpv:(code+1)*wpv]
		n := copy(dst[:full], src)
		if rem != 0 && n == full && full < len(src) {
			dst[full] = src[full] & (1<<rem - 1)
		}
	}
	return true
}

// measureRanges returns the measures' exact ranges over blocks
// [0, sealed), aliasing the summary's arrays: later extensions only
// append past them.
func (s *summary) measureRanges(tbl *colstore.Table, sealed int) *colstore.TableBlockStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.extend(tbl, sealed)
	st := colstore.NewTableBlockStats()
	for name, lo := range s.lo {
		st.SetMeasureRange(name, lo[:sealed:sealed], s.hi[name][:sealed:sealed])
	}
	return st
}
