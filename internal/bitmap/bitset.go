// Package bitmap provides the per-(attribute-value, block) bitmap index
// structures FastMatch uses to decide whether a block can contain samples
// for a candidate (§4.1), the AnyActive block-selection evaluators of
// Algorithms 2 and 3, and the predicate trees that define
// boolean-predicate candidates (Appendix A.1.2), whose block sets are
// computed from the same index.
package bitmap

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitset is a fixed-length bit vector backed by 64-bit words. One Bitset
// per attribute value stores a bit per block: 1 iff the block contains at
// least one tuple with that value. Bits at or beyond the length are
// always zero.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a zeroed bitset of n bits.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Get reports bit i.
func (b *Bitset) Get(i int) bool {
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Word returns the w-th backing word; out-of-range words read as zero.
// Exposing words lets the AnyActive evaluator consume 64 block bits per
// probe (Algorithm 3's optimization).
func (b *Bitset) Word(w int) uint64 {
	if w < 0 || w >= len(b.words) {
		return 0
	}
	return b.words[w]
}

// NumWords returns the number of backing words.
func (b *Bitset) NumWords() int { return len(b.words) }

// Or accumulates other into b. Lengths must match.
func (b *Bitset) Or(other *Bitset) error {
	if b.n != other.n {
		return fmt.Errorf("bitmap: length mismatch %d vs %d", b.n, other.n)
	}
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
	return nil
}

// And intersects other into b. Lengths must match.
func (b *Bitset) And(other *Bitset) error {
	if b.n != other.n {
		return fmt.Errorf("bitmap: length mismatch %d vs %d", b.n, other.n)
	}
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
	return nil
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	c := NewBitset(b.n)
	copy(c.words, b.words)
	return c
}
