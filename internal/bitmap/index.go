package bitmap

import (
	"fmt"

	"fastmatch/internal/colstore"
)

// Index is the per-column bitmap index: one bit per block per attribute
// value, held as value-major words. The storage cost is a single bit per
// block per attribute value — orders of magnitude cheaper than the
// bit-per-tuple indexes of prior work (§4.1).
type Index struct {
	perValue []*Bitset // value v's bits: a header over its stride of the words
	blocks   int
}

// Build returns the column's index over the source's block layout. The
// index adopts its words in place, never copying or writing them: a
// backend's exact presence words (colstore.BlockStats.PresenceWords)
// when it offers them at one word per 64 blocks, else the words of
// colstore's block-summary builder run over [0, NumBlocks) — readers
// without statistics and columns past the presence cap. A code past its
// dictionary is an error.
func Build(src colstore.Reader, columnName string) (*Index, error) {
	col, err := src.ColumnByName(columnName)
	if err != nil {
		return nil, err
	}
	nb, card := src.NumBlocks(), col.Cardinality()
	wpv := (nb + wordBits - 1) / wordBits
	var words []uint64
	if br, ok := src.(colstore.BlockStatsReader); ok {
		if st := br.BlockStats(); st != nil {
			if w, stride, ok := st.PresenceWords(columnName); ok && stride == wpv && len(w) == card*wpv {
				words = w
			}
		}
	}
	if words == nil {
		st := colstore.TableBlockStats{Stride: wpv, Presence: map[string][]uint64{columnName: make([]uint64, card*wpv)}}
		if err := st.Summarize(src, 0, nb); err != nil {
			return nil, fmt.Errorf("bitmap: %w", err)
		}
		words = st.Presence[columnName]
	}
	sets := make([]Bitset, card)
	idx := &Index{perValue: make([]*Bitset, card), blocks: nb}
	for v := range sets {
		sets[v] = Bitset{words: words[v*wpv : (v+1)*wpv : (v+1)*wpv], n: nb}
		idx.perValue[v] = &sets[v]
	}
	return idx, nil
}

// NumBlocks returns the number of blocks indexed.
func (ix *Index) NumBlocks() int { return ix.blocks }

// NumValues returns the attribute-value cardinality.
func (ix *Index) NumValues() int { return len(ix.perValue) }

// ValueBitset returns the bitset for value v (read-only use).
func (ix *Index) ValueBitset(v uint32) (*Bitset, error) {
	if int(v) >= len(ix.perValue) {
		return nil, fmt.Errorf("bitmap: value %d out of range (%d values)", v, len(ix.perValue))
	}
	return ix.perValue[v], nil
}

// BlockAnyActive is the naive per-block AnyActive policy of Algorithm 2:
// return true iff block b contains a tuple for any active candidate. Each
// probe touches a different candidate's bitmap — the cache-hostile access
// pattern the paper identifies, kept as the SyncMatch code path and the
// ablation baseline.
func (ix *Index) BlockAnyActive(active []uint32, b int) bool {
	for _, v := range active {
		if ix.perValue[v].Get(b) {
			return true
		}
	}
	return false
}

// MarkAnyActive implements Algorithm 3: AnyActive selection with
// lookahead. It sets mark[i] iff block start+i contains a tuple for at
// least one active candidate, for 0 ≤ i < len(mark). It is word-major:
// one OR per word across active candidates (see MarkAny).
func (ix *Index) MarkAnyActive(active []uint32, start int, mark []bool) {
	MarkAny(ix.perValue, active, start, mark)
}

// MarkAny sets mark[i] iff bit start+i is set in sets[id] for some id in
// active, for 0 ≤ i < len(mark), overwriting every entry. The loop is
// word-major: one OR per word across active candidates, then one
// expansion of the OR-ed word into mark, so each probe of a candidate's
// bitmap consumes up to 64 block bits instead of one. Bits at or beyond
// a set's length read as zero, so blocks past the end stay unmarked.
func MarkAny[ID int | uint32](sets []*Bitset, active []ID, start int, mark []bool) {
	for i := 0; i < len(mark); {
		b := start + i
		w, or := b/wordBits, uint64(0)
		for _, id := range active {
			or |= sets[id].Word(w)
		}
		or >>= uint(b % wordBits)
		seg := mark[i:min(i+wordBits-b%wordBits, len(mark))]
		for j := range seg {
			seg[j] = or>>uint(j)&1 != 0
		}
		i += len(seg)
	}
}
