package colstore

import (
	"encoding/binary"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// wantZeroCopy reports whether this host should get a real mapping (the
// fallback path is exercised explicitly elsewhere).
func wantZeroCopy() bool {
	return mmapSupported && hostLittleEndian
}

func writeFixtureSnapshot(t *testing.T) (*Table, string) {
	t.Helper()
	tbl := snapshotFixture(t)
	path := t.TempDir() + "/fixture.fms"
	if err := WriteSnapshotFile(tbl, path); err != nil {
		t.Fatal(err)
	}
	return tbl, path
}

// assertSameTable fails unless got serves exactly the rows, order,
// dictionaries, and measures of want.
func assertSameTable(t *testing.T, want *Table, got Reader) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.BlockSize() != want.BlockSize() || got.NumBlocks() != want.NumBlocks() {
		t.Fatalf("shape mismatch: rows %d/%d blockSize %d/%d", got.NumRows(), want.NumRows(), got.BlockSize(), want.BlockSize())
	}
	for _, name := range want.Columns() {
		wc, _ := want.Column(name)
		gc, err := got.ColumnByName(name)
		if err != nil {
			t.Fatalf("column %q lost: %v", name, err)
		}
		if gc.Cardinality() != wc.Cardinality() {
			t.Fatalf("column %q cardinality %d != %d", name, gc.Cardinality(), wc.Cardinality())
		}
		for code := uint32(0); int(code) < wc.Cardinality(); code++ {
			if wc.Dict.Value(code) != gc.Dictionary().Value(code) {
				t.Fatalf("column %q dictionary diverges at code %d", name, code)
			}
		}
		for i := 0; i < want.NumRows(); i++ {
			if wc.Code(i) != gc.Code(i) {
				t.Fatalf("column %q row %d: code %d != %d", name, i, gc.Code(i), wc.Code(i))
			}
		}
	}
	for _, name := range want.MeasureNames() {
		wm, _ := want.Measure(name)
		gm, err := got.MeasureByName(name)
		if err != nil {
			t.Fatalf("measure %q lost: %v", name, err)
		}
		for i := 0; i < want.NumRows(); i++ {
			if math.Float64bits(wm.Value(i)) != math.Float64bits(gm.Value(i)) {
				t.Fatalf("measure %q row %d: %g != %g", name, i, gm.Value(i), wm.Value(i))
			}
		}
	}
}

func TestMmapOpenZeroCopy(t *testing.T) {
	tbl, path := writeFixtureSnapshot(t)
	mt, err := OpenMmapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	assertSameTable(t, tbl, mt)
	st := mt.Storage()
	if wantZeroCopy() {
		if st.Backend != "mmap" {
			t.Fatalf("expected zero-copy mapping, got backend %q", st.Backend)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.MappedBytes != fi.Size() {
			t.Fatalf("mapped %d bytes, file is %d", st.MappedBytes, fi.Size())
		}
		// Zero copy means code arrays weigh nothing on the heap: only
		// dictionaries/bookkeeping count.
		if st.HeapBytes >= tbl.Storage().HeapBytes {
			t.Fatalf("mmap heap bytes %d not smaller than inmem %d", st.HeapBytes, tbl.Storage().HeapBytes)
		}
	} else if st.Backend != "mmap-fallback" {
		t.Fatalf("expected fallback on %s, got backend %q", runtime.GOOS, st.Backend)
	}
}

// TestWriteSnapshotFileKeepsMappedReaders rewrites the file under a
// live mapping with a smaller table. The old MmapTable must keep serving
// its rows: truncating the mapped inode in place would make its pages
// fault (SIGBUS, turned into a panic here) or change under it.
func TestWriteSnapshotFileKeepsMappedReaders(t *testing.T) {
	if !wantZeroCopy() {
		t.Skip("no zero-copy mapping on this host")
	}
	tbl, path := writeFixtureSnapshot(t)
	mt, err := OpenMmapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	small := specialValuesFixture(t)
	if err := WriteSnapshotFile(small, path); err != nil {
		t.Fatal(err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("mapped table faulted after its file was rewritten: %v", r)
		}
	}()
	assertSameTable(t, tbl, mt)
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTable(t, small, got)
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

// writeCorrupt writes b to a fresh file and returns its path.
func writeCorrupt(t *testing.T, b []byte) string {
	t.Helper()
	p := t.TempDir() + "/mut.fms"
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMmapOpenRejectsCorruption(t *testing.T) {
	_, path := writeFixtureSnapshot(t)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bad magic.
	mut := append([]byte(nil), clean...)
	mut[0] = 'X'
	if _, err := OpenMmapFile(writeCorrupt(t, mut)); err == nil {
		t.Fatal("bad magic not rejected")
	}
	// Unknown version.
	mut = append([]byte(nil), clean...)
	mut[7] = 0x7f
	if _, err := OpenMmapFile(writeCorrupt(t, mut)); err == nil {
		t.Fatal("unknown version not rejected")
	}
	// Truncations at several depths: header, dictionary, array, trailer.
	for _, keep := range []int{10, 40, len(clean) / 2, len(clean) - 2} {
		if _, err := OpenMmapFile(writeCorrupt(t, clean[:keep])); err == nil {
			t.Fatalf("truncation to %d bytes not rejected", keep)
		}
	}
	// Absurd header dimensions.
	mut = append([]byte(nil), clean...)
	binary.LittleEndian.PutUint64(mut[12:], 1<<40) // rows
	if _, err := OpenMmapFile(writeCorrupt(t, mut)); err == nil {
		t.Fatal("absurd row count not rejected")
	}
}

// TestMmapOpenRejectsOutOfRangeCode pins the availability guard: a code
// above its dictionary's cardinality must be rejected at open (the
// stream reader rejects it too), never handed to executors where it
// would index candidate/group arrays out of bounds mid-query.
func TestMmapOpenRejectsOutOfRangeCode(t *testing.T) {
	data := encodeSnapshot(t, snapshotFixture(t))
	l := walkSnapshot(t, data)
	dictLen := binary.LittleEndian.Uint32(data[l.dicts[0]:])
	binary.LittleEndian.PutUint32(data[l.codes[0]:], dictLen) // one past the dictionary
	if _, err := OpenMmapFile(writeCorrupt(t, data)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range code not rejected: %v", err)
	}
}

func TestMmapCloseIdempotent(t *testing.T) {
	_, path := writeFixtureSnapshot(t)
	mt, err := OpenMmapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mt.Close(); err != nil {
		t.Fatal("second Close must be a no-op:", err)
	}
}

// TestSnapshotSectionAlignment walks the encoding, padding to 8-byte
// offsets as the parser does, and checks that the walk ends at the
// trailer and the aligned offsets hold the table's codes verbatim: every
// array starts on an 8-byte file offset, the invariant the in-place
// reinterpretation relies on.
func TestSnapshotSectionAlignment(t *testing.T) {
	tbl := snapshotFixture(t)
	data := encodeSnapshot(t, tbl)
	l := walkSnapshot(t, data)
	if len(l.codes) != len(tbl.Columns()) || len(l.presence) != len(tbl.Columns()) {
		t.Fatalf("%d code arrays, %d presence arrays for %d columns (all fit the cap)", len(l.codes), len(l.presence), len(tbl.Columns()))
	}
	for c, name := range tbl.Columns() {
		col, _ := tbl.Column(name)
		for i := 0; i < tbl.NumRows(); i++ {
			if got := binary.LittleEndian.Uint32(data[l.codes[c]+4*i:]); got != col.Code(i) {
				t.Fatalf("column %q row %d: aligned section holds %d, want %d", name, i, got, col.Code(i))
			}
		}
	}
}
