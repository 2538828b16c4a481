package colstore

import (
	"fmt"
	"math"
)

// Per-block statistics ("zone maps") for data skipping.
//
// BlockStats carries two per-block summaries. Measure ranges answer
// "what value range does measure m span in block b?", which the planner
// uses to prove a block holds no row in any bin before reading it; the
// answer is sound in the skipping direction — a disjoint range is a proof
// of absence, and an unknown range merely costs a block read that a full
// scan would have paid anyway. Presence words are each column's exact
// per-block value presence in the value-major layout of the §4.1 index:
// bitmap.Build adopts them as the index's words, and the index is what
// categorical skipping reads.
//
// One builder makes both summaries for every backend:
// TableBlockStats.Summarize, over a block range of a Reader. The
// in-memory table runs it over all blocks on first use; both snapshot
// opens run it as their one code-validation pass (the heap open also
// folds measure ranges, to check the stored ones; the mmap open adopts
// the stored ranges unread, since checking would page in the measure
// arrays); the live-ingest summary runs it over newly sealed blocks and
// a view over its unsealed tail, whose measure ranges stay unknown; and
// bitmap.Build runs it over all blocks when a reader offers no words.

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
// bits, ~16 MiB of words at the cap). Columns past it keep no presence
// words; their index is built on first request by the same builder.
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

// TableBlockStats holds exact per-block statistics in caller-owned
// arrays, and its Summarize is the one builder of them. Every backend's
// statistics, the live-ingest summary and bitmap.Build's words come out
// of Summarize. Immutable once shared.
type TableBlockStats struct {
	// Stride is the words per value of every Presence entry, at least
	// ⌈blocks/64⌉.
	Stride int
	// Presence maps a column to its value-major presence words: bit b of
	// value v is Presence[column][v*Stride + b/64] >> (b%64) & 1. A nil
	// entry asks Summarize to check the column's codes without marking.
	Presence map[string][]uint64
	// Lo and Hi map a measure to its per-block minima and maxima.
	Lo, Hi map[string][]float64
}

// Summarize folds blocks [from, to) of r into s. For every column keyed
// in s.Presence it rejects any code at or past the column's cardinality
// and, unless the entry is nil, ORs bit b of the code's value into its
// words. For every measure keyed in s.Lo it sets Lo[b] and Hi[b] to the
// block's valueRange. The caller sizes every array (cardinality × Stride
// words, Lo/Hi past to); bits already set stay set, so a summary grows
// one block range at a time. Each column and measure is read once, in
// block order.
func (s *TableBlockStats) Summarize(r Reader, from, to int) error {
	stride := s.Stride
	for _, name := range r.Columns() {
		words, ok := s.Presence[name]
		if !ok {
			continue
		}
		col, err := r.ColumnByName(name)
		if err != nil {
			return err
		}
		card := uint32(col.Cardinality())
		for b := from; b < to; b++ {
			lo, hi := r.BlockSpan(b)
			w, bit := b>>6, uint64(1)<<(uint(b)&63)
			for i, code := range col.Codes(lo, hi) {
				if code >= card {
					return fmt.Errorf("column %q code %d out of range (dict size %d) at row %d", name, code, card, lo+i)
				}
				if words != nil {
					words[int(code)*stride+w] |= bit
				}
			}
		}
	}
	for _, name := range r.MeasureNames() {
		lo, ok := s.Lo[name]
		if !ok {
			continue
		}
		m, err := r.MeasureByName(name)
		if err != nil {
			return err
		}
		hi := s.Hi[name]
		for b := from; b < to; b++ {
			blo, bhi := r.BlockSpan(b)
			lo[b], hi[b] = valueRange(m.Values(blo, bhi))
		}
	}
	return nil
}

// MeasureRange implements BlockStats.
func (s *TableBlockStats) MeasureRange(measure string, b int) (lo, hi float64, ok bool) {
	mlo := s.Lo[measure]
	if b < 0 || b >= len(mlo) {
		return 0, 0, false
	}
	return mlo[b], s.Hi[measure][b], true
}

// PresenceWords implements BlockStats.
func (s *TableBlockStats) PresenceWords(column string) ([]uint64, int, bool) {
	words := s.Presence[column]
	return words, s.Stride, words != nil
}

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

// newBlockStats returns empty statistics at the presence stride of nb
// blocks.
func newBlockStats(nb int) *TableBlockStats {
	return &TableBlockStats{
		Stride:   presenceWordsPerValue(nb),
		Presence: make(map[string][]uint64),
		Lo:       make(map[string][]float64),
		Hi:       make(map[string][]float64),
	}
}

// computeBlockStats builds a table's exact statistics in one Summarize
// pass: presence words for every column under the cap, min/max for every
// measure. A code past its dictionary (NewTable does not check codes)
// leaves the table with no statistics, so nothing is skipped and
// bitmap.Build reports the code.
func computeBlockStats(r Reader) *TableBlockStats {
	nb := r.NumBlocks()
	s := newBlockStats(nb)
	for _, name := range r.Columns() {
		col, err := r.ColumnByName(name)
		if err == nil && PresenceFits(col.Cardinality(), nb) {
			s.Presence[name] = make([]uint64, col.Cardinality()*s.Stride)
		}
	}
	for _, name := range r.MeasureNames() {
		s.Lo[name], s.Hi[name] = make([]float64, nb), make([]float64, nb)
	}
	if s.Summarize(r, 0, nb) != nil {
		return newBlockStats(nb)
	}
	return s
}
