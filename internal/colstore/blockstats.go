package colstore

import "math"

// Per-block statistics ("zone maps") for data skipping.
//
// BlockStats carries two per-block summaries. Measure ranges answer
// "what value range does measure m span in block b?", which the planner
// uses to prove a block holds no row in any bin before reading it; the
// answer is sound in the skipping direction — a disjoint range is a proof
// of absence, and an unknown range merely costs a block read that a full
// scan would have paid anyway. Presence words are each column's exact
// per-block value presence, from which bitmap.Build copies the §4.1
// index instead of scanning the column; the index is what categorical
// skipping reads.
//
// Precision varies by backend and is part of each backend's contract:
// the in-memory table computes exact per-block stats on first use; both
// snapshot opens recompute exact code presence in their code-validation
// scan and take measure ranges from the snapshot's stored section — the
// heap open after checking them against the values, the mmap open
// unread (checking would page in the measure arrays, forfeiting the
// ~instant cold start); the live-ingest backend answers sealed blocks
// exactly from its table-wide summary and scans the unsealed tail for
// presence, leaving the tail's measure ranges unknown.

// BlockStats exposes per-block column statistics. Implementations are
// immutable and safe for concurrent readers.
type BlockStats interface {
	// MeasureRange returns the closed interval [lo, hi] covering every
	// finite value of the named measure in block b, with ok=false when the
	// range is unknown. A block with no finite values reports the empty
	// range lo=+Inf, hi=-Inf (ok=true): it provably bins nowhere.
	MeasureRange(measure string, b int) (lo, hi float64, ok bool)
	// PresenceWords returns the exact value-major presence bitset for the
	// column when one exists: bit b of value v is
	// words[int(v)*wordsPerValue + b/64] >> (b%64) & 1. ok=false means no
	// exact bitset is available. The returned words are read-only.
	PresenceWords(column string) (words []uint64, wordsPerValue int, ok bool)
}

// BlockStatsReader is an optional Reader capability: backends that keep
// per-block statistics surface them here. BlockStats may return nil when
// the backend has none (wrappers over stat-less readers).
type BlockStatsReader interface {
	BlockStats() BlockStats
}

// maxPresenceBits caps a column's presence bitset (cardinality × blocks
// bits, ~16 MiB of words at the cap). Columns past it skip presence, and
// their index is built by a column scan instead.
const maxPresenceBits = 1 << 27

// presenceWordsPerValue is the stride of one value's block bits.
func presenceWordsPerValue(numBlocks int) int { return (numBlocks + 63) / 64 }

// PresenceFits reports whether a column's presence bitset is worth
// materializing. Writers and readers must agree on this decision: the v3
// snapshot section stores one presence flag per column and the reader
// cross-checks it. The live-ingest backend's summary applies the same cap.
func PresenceFits(cardinality, numBlocks int) bool {
	return int64(cardinality)*int64(presenceWordsPerValue(numBlocks))*64 <= maxPresenceBits
}

// TableBlockStats is the concrete per-block statistics container shared
// by the in-memory, snapshot, and mmap backends. Immutable once built.
type TableBlockStats struct {
	presence map[string]presenceStats
	ranges   map[string]rangeStats
}

type presenceStats struct {
	words []uint64
	wpv   int
}

type rangeStats struct{ lo, hi []float64 }

// NewTableBlockStats returns an empty container, to be populated with
// SetPresence/SetMeasureRange before sharing.
func NewTableBlockStats() *TableBlockStats {
	return &TableBlockStats{
		presence: make(map[string]presenceStats),
		ranges:   make(map[string]rangeStats),
	}
}

// SetPresence installs a column's value-major presence words (aliased,
// not copied; see PresenceWords for the layout).
func (s *TableBlockStats) SetPresence(column string, words []uint64, wordsPerValue int) {
	s.presence[column] = presenceStats{words: words, wpv: wordsPerValue}
}

// SetMeasureRange installs a measure's per-block [lo, hi] arrays
// (aliased, not copied; length numBlocks each).
func (s *TableBlockStats) SetMeasureRange(measure string, lo, hi []float64) {
	s.ranges[measure] = rangeStats{lo: lo, hi: hi}
}

// MeasureRange implements BlockStats.
func (s *TableBlockStats) MeasureRange(measure string, b int) (lo, hi float64, ok bool) {
	rg, found := s.ranges[measure]
	if !found || b < 0 || b >= len(rg.lo) {
		return 0, 0, false
	}
	return rg.lo[b], rg.hi[b], true
}

// PresenceWords implements BlockStats.
func (s *TableBlockStats) PresenceWords(column string) ([]uint64, int, bool) {
	p, ok := s.presence[column]
	if !ok {
		return nil, 0, false
	}
	return p.words, p.wpv, true
}

var _ BlockStats = (*TableBlockStats)(nil)

// valueRange folds vals into [lo, hi] starting from the empty interval
// (+Inf, -Inf): NaN values never update either bound (comparisons are
// false), so an all-NaN block keeps the empty range — which provably
// bins nowhere.
func valueRange(vals []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// computeBlockStats scans a reader once and builds exact per-block
// statistics: value presence for every categorical column under the size
// cap, min/max for every measure. The single pass is the same shape as
// the snapshot/mmap open validation, which fold the identical updates
// into their existing loops instead of calling this.
func computeBlockStats(r Reader) *TableBlockStats {
	nb := r.NumBlocks()
	s := NewTableBlockStats()
	for _, name := range r.Columns() {
		col, err := r.ColumnByName(name)
		if err != nil {
			continue
		}
		card := col.Cardinality()
		if !PresenceFits(card, nb) {
			continue
		}
		wpv := presenceWordsPerValue(nb)
		words := make([]uint64, card*wpv)
		for b := 0; b < nb; b++ {
			lo, hi := r.BlockSpan(b)
			w, bit := b>>6, uint64(1)<<(uint(b)&63)
			for _, code := range col.Codes(lo, hi) {
				words[int(code)*wpv+w] |= bit
			}
		}
		s.SetPresence(name, words, wpv)
	}
	for _, name := range r.MeasureNames() {
		m, err := r.MeasureByName(name)
		if err != nil {
			continue
		}
		lo, hi := make([]float64, nb), make([]float64, nb)
		for b := 0; b < nb; b++ {
			blo, bhi := r.BlockSpan(b)
			lo[b], hi[b] = valueRange(m.Values(blo, bhi))
		}
		s.SetMeasureRange(name, lo, hi)
	}
	return s
}
