package bitmap

import (
	"fmt"

	"fastmatch/internal/colstore"
)

// Index is the per-column bitmap index: one Bitset per attribute value,
// each with one bit per block. The storage cost is a single bit per block
// per attribute value — orders of magnitude cheaper than the
// bit-per-tuple indexes of prior work (§4.1).
type Index struct {
	perValue []*Bitset
	blocks   int
}

// Build scans the column once and constructs its index against the
// source's block layout. It works over any storage backend (the Codes
// slices are only read, per the colstore.Reader aliasing contract).
// Backends exposing exact per-block presence words (the stats computed
// in every open's validation pass, and the live-ingest summary, use the
// same value-major bit layout as this index) serve Build by copying
// words, skipping the O(rows) scan entirely.
func Build(src colstore.Reader, columnName string) (*Index, error) {
	col, err := src.ColumnByName(columnName)
	if err != nil {
		return nil, err
	}
	nb := src.NumBlocks()
	card := col.Cardinality()
	if br, ok := src.(colstore.BlockStatsReader); ok {
		if st := br.BlockStats(); st != nil {
			// PresenceWords is exact by contract (inexact stats decline), so
			// the copied index is bit-for-bit what the scan below builds.
			words, wpv, ok := st.PresenceWords(columnName)
			if ok && wpv == (nb+wordBits-1)/wordBits && len(words) == card*wpv {
				idx := &Index{perValue: make([]*Bitset, card), blocks: nb}
				for v := range idx.perValue {
					bs := NewBitset(nb)
					copy(bs.words, words[v*wpv:(v+1)*wpv])
					idx.perValue[v] = bs
				}
				return idx, nil
			}
		}
	}
	idx := &Index{perValue: make([]*Bitset, card), blocks: nb}
	for v := range idx.perValue {
		idx.perValue[v] = NewBitset(nb)
	}
	for b := 0; b < nb; b++ {
		lo, hi := src.BlockSpan(b)
		for _, code := range col.Codes(lo, hi) {
			idx.perValue[code].Set(b)
		}
	}
	return idx, nil
}

// NumBlocks returns the number of blocks indexed.
func (ix *Index) NumBlocks() int { return ix.blocks }

// NumValues returns the attribute-value cardinality.
func (ix *Index) NumValues() int { return len(ix.perValue) }

// Contains reports whether block b contains any tuple with value code v.
func (ix *Index) Contains(v uint32, b int) bool {
	return ix.perValue[v].Get(b)
}

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
