package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"fastmatch/internal/histogram"
)

// TestBatchWireRoundTripMerge is the wire contract property test: for
// random batches a, b over the same candidate domain,
// decode(encode(a)).Merge(decode(encode(b))) must be bit-identical to
// a.Merge(b) on the in-memory originals (batchEqual compares histogram
// cells via Float64bits).
func TestBatchWireRoundTripMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		nCand := 1 + rng.Intn(8)
		groups := 1 + rng.Intn(12)
		a, b := randBatch(rng, nCand, groups), randBatch(rng, nCand, groups)

		wantA, wantB := cloneBatch(a), cloneBatch(b)
		if err := wantA.Merge(wantB); err != nil {
			t.Fatalf("iter %d: direct merge: %v", iter, err)
		}

		da, err := DecodeBatch(EncodeBatch(a))
		if err != nil {
			t.Fatalf("iter %d: decode a: %v", iter, err)
		}
		if err := batchEqual(da, a); err != nil {
			t.Fatalf("iter %d: round-trip a: %v", iter, err)
		}
		db, err := DecodeBatch(EncodeBatch(b))
		if err != nil {
			t.Fatalf("iter %d: decode b: %v", iter, err)
		}
		if err := da.Merge(db); err != nil {
			t.Fatalf("iter %d: wire merge: %v", iter, err)
		}
		if err := batchEqual(da, wantA); err != nil {
			t.Fatalf("iter %d: wire merge differs from direct merge: %v", iter, err)
		}
	}
}

func TestBatchWireNilAndEmpty(t *testing.T) {
	got, err := DecodeBatch(EncodeBatch(nil))
	if err != nil {
		t.Fatalf("decode(encode(nil)): %v", err)
	}
	if got.Drawn != 0 || len(got.Counts) != 0 || got.Exhausted || got.Exact != nil {
		t.Fatalf("nil batch round-trip = %+v, want zero batch", got)
	}
}

func TestBatchWireRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	payload := EncodeBatch(randBatch(rng, 5, 6))

	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), payload...)
		bad[0] = 'X'
		if _, err := DecodeBatch(bad); !errors.Is(err, ErrWireMagic) {
			t.Fatalf("bad magic: err = %v, want ErrWireMagic", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint16(bad[4:6], 99)
		// keep the checksum honest so the version guard is what fires
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
		if _, err := DecodeBatch(bad); !errors.Is(err, ErrWireVersion) {
			t.Fatalf("cross-version: err = %v, want ErrWireVersion", err)
		}
	})
	t.Run("flipped byte", func(t *testing.T) {
		for off := 6; off < len(payload)-4; off += 7 {
			bad := append([]byte(nil), payload...)
			bad[off] ^= 0x40
			if _, err := DecodeBatch(bad); !errors.Is(err, ErrWireCorrupt) {
				t.Fatalf("flip at %d: err = %v, want ErrWireCorrupt", off, err)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{5, 9, 14, len(payload) / 2, len(payload) - 1} {
			if n >= len(payload) {
				continue
			}
			if _, err := DecodeBatch(payload[:n]); err == nil {
				t.Fatalf("truncated to %d bytes decoded without error", n)
			} else if !errors.Is(err, ErrWireCorrupt) && !errors.Is(err, ErrWireMagic) {
				t.Fatalf("truncated to %d: err = %v, want typed wire error", n, err)
			}
		}
	})
	t.Run("oversized counts", func(t *testing.T) {
		// Claim 2^31 candidates in a tiny frame: must reject before allocating.
		bad := make([]byte, 0, 32)
		bad = append(bad, "FMBW"...)
		bad = binary.LittleEndian.AppendUint16(bad, 1)
		bad = binary.LittleEndian.AppendUint64(bad, 0)
		bad = binary.LittleEndian.AppendUint32(bad, 1<<31-1)
		bad = binary.LittleEndian.AppendUint32(bad, crc32.ChecksumIEEE(bad))
		if _, err := DecodeBatch(bad); !errors.Is(err, ErrWireCorrupt) {
			t.Fatalf("oversized count: err = %v, want ErrWireCorrupt", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append([]byte(nil), payload[:len(payload)-4]...)
		bad = append(bad, 0xAB, 0xCD)
		bad = binary.LittleEndian.AppendUint32(bad, crc32.ChecksumIEEE(bad))
		if _, err := DecodeBatch(bad); !errors.Is(err, ErrWireCorrupt) {
			t.Fatalf("trailing bytes: err = %v, want ErrWireCorrupt", err)
		}
	})
}

// FuzzDecodeBatch feeds arbitrary bytes to DecodeBatch twice: as given,
// and resealed with a fresh checksum over all but their last four bytes,
// so mutations reach the structural checks behind the CRC. Each input
// yields a typed wire error or a valid batch, never a panic; decoding
// allocates in proportion to the input, never to a length field the
// bytes do not back; an accepted batch re-encodes to exactly its input
// (one canonical encoding per batch); and merging it into a fixed-domain
// batch either succeeds or returns an error.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeBatch(t, data)
		if len(data) >= 4 {
			body := append([]byte(nil), data[:len(data)-4]...)
			checkDecodeBatch(t, binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
		}
	})
}

func checkDecodeBatch(t *testing.T, data []byte) {
	// Allocation is averaged over a few decodes: TotalAlloc is
	// process-wide, and a single reading also counts the runtime's own.
	const reps = 8
	b, err := DecodeBatch(data)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		_, _ = DecodeBatch(data)
	}
	runtime.ReadMemStats(&after)
	if alloc := (after.TotalAlloc - before.TotalAlloc) / reps; alloc > 64*uint64(len(data))+1024 {
		t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
	}
	if err != nil {
		if !errors.Is(err, ErrWireMagic) && !errors.Is(err, ErrWireVersion) && !errors.Is(err, ErrWireCorrupt) {
			t.Fatalf("untyped decode error: %v", err)
		}
		return
	}
	if got := EncodeBatch(b); !bytes.Equal(got, data) {
		t.Fatalf("re-encoding an accepted batch changed it: %d bytes in, %d out", len(data), len(got))
	}
	dst := &Batch{Counts: make([]int64, 2), Hists: []*histogram.Histogram{histogram.New(3), nil}, Exact: make([]bool, 2)}
	_ = dst.Merge(b) // an error is fine; a panic is not
}
