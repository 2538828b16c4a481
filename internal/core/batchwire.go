package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"fastmatch/internal/histogram"
)

// Batch wire encoding
//
// Shard daemons ship sampling-round partials to the coordinator as
// encoded Batches; the coordinator folds them with Batch.Merge, so the
// encoding must be value-exact: histogram cells travel as raw Float64
// bits (they only ever hold integral tuple counts, so decode→Merge is
// bit-identical to merging the in-memory originals). The format is
// self-describing and checksummed:
//
//	[4]  magic "FMBW"
//	[2]  version (little-endian uint16)
//	[8]  Drawn (int64)
//	[4]  candidate count n (uint32)
//	[8n] Counts (int64 each)
//	per candidate: [4] group count g (0 = nil histogram), then
//	               [8g] cells (Float64bits)
//	[1]  Exhausted (0/1)
//	[1]  Exact present (0/1), then [n] Exact flags when present
//	[4]  CRC32 (IEEE) over everything above
//
// Decoding validates the magic, the version, every length against the
// bytes left in the payload (before allocating for it), the trailing
// checksum, and that the payload is the one encoding of its batch — flag
// bytes 0 or 1, histogram cells finite and non-negative — returning the
// typed errors below so callers can distinguish cross-version peers from
// corruption.
var (
	// ErrWireMagic means the payload is not a Batch encoding at all.
	ErrWireMagic = errors.New("core: batch wire: bad magic")
	// ErrWireVersion means the payload is a Batch encoding from an
	// incompatible format version.
	ErrWireVersion = errors.New("core: batch wire: unsupported version")
	// ErrWireCorrupt means the payload is truncated, has inconsistent
	// lengths, or fails its checksum.
	ErrWireCorrupt = errors.New("core: batch wire: corrupt payload")
)

const (
	batchWireMagic   = "FMBW"
	batchWireVersion = 1
)

// EncodeBatch serializes b. A nil batch encodes as an empty batch with
// zero candidates.
func EncodeBatch(b *Batch) []byte {
	if b == nil {
		b = &Batch{}
	}
	size := 4 + 2 + 8 + 4 + 8*len(b.Counts) + 4*len(b.Hists) + 1 + 1 + 4
	for _, h := range b.Hists {
		if h != nil {
			size += 8 * h.Groups()
		}
	}
	if b.Exact != nil {
		size += len(b.Exact)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, batchWireMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, batchWireVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.Drawn))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Counts)))
	for _, c := range b.Counts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	for _, h := range b.Hists {
		if h == nil {
			buf = binary.LittleEndian.AppendUint32(buf, 0)
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Groups()))
		for g := 0; g < h.Groups(); g++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Count(g)))
		}
	}
	if b.Exhausted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	if b.Exact == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		for _, e := range b.Exact {
			if e {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// batchWireReader walks an encoded payload with bounds checking.
type batchWireReader struct {
	data []byte
	pos  int
}

func (r *batchWireReader) need(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, fmt.Errorf("%w: truncated at offset %d (want %d more bytes of %d)",
			ErrWireCorrupt, r.pos, n, len(r.data))
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

func (r *batchWireReader) u16() (uint16, error) {
	b, err := r.need(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *batchWireReader) u32() (uint32, error) {
	b, err := r.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *batchWireReader) u64() (uint64, error) {
	b, err := r.need(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// left returns the number of unread bytes.
func (r *batchWireReader) left() int { return len(r.data) - r.pos }

func (r *batchWireReader) flag() (bool, error) {
	b, err := r.need(1)
	if err != nil {
		return false, err
	}
	if b[0] > 1 {
		return false, fmt.Errorf("%w: flag byte %d at offset %d", ErrWireCorrupt, b[0], r.pos-1)
	}
	return b[0] == 1, nil
}

// DecodeBatch parses an EncodeBatch payload, validating structure and
// checksum. The returned batch owns freshly allocated state and may be
// merged or mutated freely.
func DecodeBatch(data []byte) (*Batch, error) {
	if len(data) < 4 || string(data[:4]) != batchWireMagic {
		return nil, ErrWireMagic
	}
	if len(data) < 4+2+4 {
		return nil, fmt.Errorf("%w: %d bytes is below the minimum frame", ErrWireCorrupt, len(data))
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x want %08x)", ErrWireCorrupt, got, sum)
	}
	r := &batchWireReader{data: body, pos: 4}
	v, err := r.u16()
	if err != nil {
		return nil, err
	}
	if v != batchWireVersion {
		return nil, fmt.Errorf("%w: version %d (this build speaks %d)", ErrWireVersion, v, batchWireVersion)
	}
	drawn, err := r.u64()
	if err != nil {
		return nil, err
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	// Each candidate costs at least 12 bytes (count + nil-histogram
	// marker); reject counts the rest of the payload cannot hold before
	// allocating.
	if int64(n) > int64(r.left()/12) {
		return nil, fmt.Errorf("%w: candidate count %d exceeds payload capacity", ErrWireCorrupt, n)
	}
	b := &Batch{
		Drawn:  int64(drawn),
		Counts: make([]int64, n),
		Hists:  make([]*histogram.Histogram, n),
	}
	for i := range b.Counts {
		c, err := r.u64()
		if err != nil {
			return nil, err
		}
		b.Counts[i] = int64(c)
	}
	for i := range b.Hists {
		g, err := r.u32()
		if err != nil {
			return nil, err
		}
		if g == 0 {
			continue
		}
		if int64(g) > int64(r.left()/8) {
			return nil, fmt.Errorf("%w: group count %d exceeds payload capacity", ErrWireCorrupt, g)
		}
		cells := make([]float64, g)
		for j := range cells {
			bits, err := r.u64()
			if err != nil {
				return nil, err
			}
			c := math.Float64frombits(bits)
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("%w: candidate %d group %d count %g", ErrWireCorrupt, i, j, c)
			}
			cells[j] = c
		}
		b.Hists[i] = histogram.FromCounts(cells)
	}
	if b.Exhausted, err = r.flag(); err != nil {
		return nil, err
	}
	hasExact, err := r.flag()
	if err != nil {
		return nil, err
	}
	if hasExact {
		b.Exact = make([]bool, n)
		for i := range b.Exact {
			if b.Exact[i], err = r.flag(); err != nil {
				return nil, err
			}
		}
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrWireCorrupt, len(body)-r.pos)
	}
	return b, nil
}
