package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"strings"
	"testing"
)

// snapshotFixture builds a small table with two categorical columns and a
// measure, shuffled so the snapshot must preserve a nontrivial permutation.
func snapshotFixture(t *testing.T) *Table {
	t.Helper()
	b := NewBuilder(16)
	if _, err := b.AddColumn("country"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddColumn("bracket"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddMeasure("amount"); err != nil {
		t.Fatal(err)
	}
	countries := []string{"greece", "portugal", "norway", "brazil"}
	for i := 0; i < 500; i++ {
		err := b.AppendRow(map[string]string{
			"country": countries[i%len(countries)],
			"bracket": fmt.Sprintf("b%d", i%7),
		}, map[string]float64{"amount": float64(i%97) / 3})
		if err != nil {
			t.Fatal(err)
		}
	}
	b.Shuffle(42)
	return b.Build()
}

// csvDump renders a table as CSV text; byte equality of dumps implies the
// tables hold identical rows in identical order.
func csvDump(t *testing.T, tbl *Table) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteCSV(tbl, &sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestSnapshotRoundTrip(t *testing.T) {
	tbl := snapshotFixture(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tbl.NumRows() || got.BlockSize() != tbl.BlockSize() || got.NumBlocks() != tbl.NumBlocks() {
		t.Fatalf("shape mismatch: rows %d/%d, blockSize %d/%d",
			got.NumRows(), tbl.NumRows(), got.BlockSize(), tbl.BlockSize())
	}
	if want, have := csvDump(t, tbl), csvDump(t, got); want != have {
		t.Fatal("round-tripped table rows differ from original")
	}
	// Dictionaries must keep code order, not just values.
	for _, name := range tbl.Columns() {
		a, _ := tbl.Column(name)
		b, err := got.Column(name)
		if err != nil {
			t.Fatalf("column %q lost: %v", name, err)
		}
		for code := uint32(0); int(code) < a.Dict.Len(); code++ {
			if a.Dict.Value(code) != b.Dict.Value(code) {
				t.Fatalf("column %q code %d: %q != %q", name, code, a.Dict.Value(code), b.Dict.Value(code))
			}
		}
	}
	if _, err := got.Measure("amount"); err != nil {
		t.Fatalf("measure lost: %v", err)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	tbl := snapshotFixture(t)
	path := t.TempDir() + "/fixture.fms"
	if err := WriteSnapshotFile(tbl, path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want, have := csvDump(t, tbl), csvDump(t, got); want != have {
		t.Fatal("file round trip altered table contents")
	}
}

func TestSnapshotEmptyTable(t *testing.T) {
	b := NewBuilder(8)
	if _, err := b.AddColumn("only"); err != nil {
		t.Fatal(err)
	}
	tbl := b.Build()
	var buf bytes.Buffer
	if err := WriteSnapshot(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || len(got.Columns()) != 1 {
		t.Fatalf("empty table round trip: %d rows, %v columns", got.NumRows(), got.Columns())
	}
}

// specialValuesFixture holds NaN and ±Inf measure values, including an
// all-NaN block (stored range: the empty interval +Inf, -Inf), so stored
// measure ranges are only checkable bitwise.
func specialValuesFixture(t *testing.T) *Table {
	t.Helper()
	dict := NewDictionary()
	dict.Intern("a")
	dict.Intern("b")
	nan, inf := math.NaN(), math.Inf(1)
	tbl, err := NewTable(4, 10,
		[]*Column{NewColumn("z", dict, []uint32{0, 1, 1, 0, 0, 0, 1, 1, 0, 1})},
		[]*MeasureColumn{NewMeasureColumn("m", []float64{1, nan, -inf, 2, nan, nan, nan, nan, inf, 0.5})})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func encodeSnapshot(t *testing.T, tbl *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotLayout locates the sections of an encoded snapshot, found by a
// walk independent of parseSnapshot: per column its dictionary-length
// field, codes and presence words; per measure its values and stored
// minima; every nonempty padding run; and the trailer.
type snapshotLayout struct {
	dicts, codes, presence, values, ranges, pads []int
	trailer                                      int
}

// walkSnapshot walks a valid snapshot, skipping padding to each 8-byte
// offset as a parser does and failing on a nonzero padding byte or a
// trailer that does not end the file.
func walkSnapshot(t *testing.T, data []byte) snapshotLayout {
	t.Helper()
	var l snapshotLayout
	off := 8
	u32 := func() int {
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return int(v)
	}
	skipStr := func() { off += u32() }
	pad8 := func() {
		if off%8 != 0 {
			l.pads = append(l.pads, off)
		}
		for ; off%8 != 0; off++ {
			if data[off] != 0 {
				t.Fatalf("nonzero padding byte at offset %d", off)
			}
		}
	}
	blockSize := u32()
	rows := int(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	ncols, nmeas := u32(), u32()
	nb := (rows + blockSize - 1) / blockSize
	var cards []int
	for c := 0; c < ncols; c++ {
		skipStr()
		l.dicts = append(l.dicts, off)
		card := u32()
		for i := 0; i < card; i++ {
			skipStr()
		}
		cards = append(cards, card)
		pad8()
		l.codes = append(l.codes, off)
		off += 4 * rows
	}
	for m := 0; m < nmeas; m++ {
		skipStr()
		pad8()
		l.values = append(l.values, off)
		off += 8 * rows
	}
	for c := 0; c < ncols; c++ {
		if u32() == 1 {
			pad8()
			l.presence = append(l.presence, off)
			off += 8 * cards[c] * presenceWordsPerValue(nb)
		}
	}
	for m := 0; m < nmeas; m++ {
		pad8()
		l.ranges = append(l.ranges, off)
		off += 16 * nb
	}
	l.trailer = off
	if off+4 != len(data) {
		t.Fatalf("trailer at %d, file is %d bytes", off, len(data))
	}
	return l
}

// fixCRC rewrites the trailer to match the (mutated) payload, so only a
// structural or statistics check can reject the file.
func fixCRC(b []byte) []byte {
	n := len(b) - 4
	binary.LittleEndian.PutUint32(b[n:], crc32.ChecksumIEEE(b[8:n]))
	return b
}

// TestSnapshotRejectsCorruption runs one corruption table against both
// opens. They share one parser, so wherever it rejects a file both report
// the identical error; the only difference is the heapOnly rows, which
// the heap open rejects through its two extra checks (CRC, measure
// ranges) and the mmap open may accept.
func TestSnapshotRejectsCorruption(t *testing.T) {
	clean := encodeSnapshot(t, snapshotFixture(t))
	special := encodeSnapshot(t, specialValuesFixture(t))
	l, sl := walkSnapshot(t, clean), walkSnapshot(t, special)
	mut := func(src []byte, f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), src...))
	}
	set := func(off int, v byte) func([]byte) []byte {
		return func(b []byte) []byte { b[off] = v; return b }
	}
	put32 := func(off int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[off:], v); return b }
	}
	dictLen := binary.LittleEndian.Uint32(clean[l.dicts[0]:])
	for _, tc := range []struct {
		name     string
		data     []byte
		want     string
		heapOnly bool
	}{
		{"bad magic", mut(clean, set(0, 'X')), "bad magic", false},
		{"version 1", mut(clean, set(7, 1)), "version 1 (only version 3 is read; rewrite", false},
		{"version 2", mut(clean, set(7, 2)), "version 2 (only version 3 is read; rewrite", false},
		{"version 0x7f", mut(clean, set(7, 0x7f)), "version 127", false},
		{"truncated magic", clean[:5], "corrupt magic", false},
		{"truncated header", clean[:14], "corrupt header", false},
		{"truncated dictionary", clean[:l.dicts[0]+6], "corrupt dictionary value", false},
		{"truncated array", clean[:l.codes[0]+10], "corrupt codes", false},
		{"truncated stats section", clean[:l.presence[0]+8], "corrupt stats presence words", false},
		{"truncated trailer", clean[:len(clean)-2], "corrupt CRC trailer", false},
		{"trailing bytes", append(append([]byte(nil), clean...), 0), "corrupt CRC trailer", false},
		{"zero block size", mut(clean, put32(8, 0)), "block size 0 out of range", false},
		{"absurd row count", mut(clean, func(b []byte) []byte { binary.LittleEndian.PutUint64(b[12:], 1<<40); return b }), "row count", false},
		{"absurd column count", mut(clean, put32(20, 1<<20)), "declares 1048576 columns", false},
		{"out-of-range code", mut(clean, put32(l.codes[0], dictLen)), "out of range", false},
		{"nonzero padding", mut(clean, set(l.pads[0], 1)), "nonzero alignment padding", false},
		{"stored presence disagrees", mut(clean, func(b []byte) []byte { b[l.presence[0]] ^= 1; return b }), "stored presence disagrees", false},
		// "country" → "countrx": structurally valid, so only the CRC sees it.
		{"flipped payload byte", mut(clean, func(b []byte) []byte { b[l.dicts[0]-1] ^= 1; return b }), "CRC mismatch", true},
		// Block 0's stored max (2) becomes +Inf; the CRC is recomputed, so
		// only the heap open's range check can reject it.
		{"stored measure range disagrees", mut(special, func(b []byte) []byte {
			maxima := sl.ranges[0] + (sl.trailer-sl.ranges[0])/2
			binary.LittleEndian.PutUint64(b[maxima:], math.Float64bits(math.Inf(1)))
			return fixCRC(b)
		}), "measure \"m\" stored range disagrees with values in block 0", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := t.TempDir() + "/corrupt.fms"
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, herr := ReadSnapshotFile(path)
			if herr == nil || !strings.Contains(herr.Error(), tc.want) {
				t.Fatalf("heap open: got %v, want an error containing %q", herr, tc.want)
			}
			mt, merr := OpenMmapFile(path)
			switch {
			case merr == nil && tc.heapOnly:
				mt.Close()
			case merr == nil:
				t.Fatal("mmap open accepted the corrupt file")
			case !tc.heapOnly && merr.Error() != herr.Error():
				t.Fatalf("opens disagree:\n heap: %v\n mmap: %v", herr, merr)
			}
		})
	}
	// Uncorrupted, both fixtures pass the heap open's full verification
	// (the special one's stored ranges hold ±Inf and the empty interval).
	for _, data := range [][]byte{clean, special} {
		if _, err := ReadSnapshot(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzSnapshot feeds arbitrary bytes to the heap open and to the parser
// in mmap mode over an aligned copy. Each input yields an error or a
// valid table, never a panic; whenever the heap open accepts, the mmap
// parse accepts the same bytes with identical rows, and re-encoding the
// table reproduces the input exactly (one canonical encoding per table).
func FuzzSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ReadSnapshot(bytes.NewReader(data))
		aligned, rerr := readAligned(bytes.NewReader(data), int64(len(data)))
		if rerr != nil {
			t.Fatal(rerr)
		}
		mapped, merr := parseSnapshot(aligned, false)
		if err != nil {
			return
		}
		if merr != nil {
			t.Fatalf("heap open accepted, mmap parse rejected: %v", merr)
		}
		assertSameTable(t, tbl, mapped)
		if got := encodeSnapshot(t, tbl); !bytes.Equal(got, data) {
			t.Fatalf("re-encoding an accepted snapshot changed it: %d bytes in, %d out", len(data), len(got))
		}
	})
}
