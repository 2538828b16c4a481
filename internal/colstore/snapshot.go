package colstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"unsafe"
)

// Binary table snapshots.
//
// A snapshot is the serialized form of a Table, letting a server cold-start
// a large dataset without re-parsing (and re-shuffling) CSV: the block
// layout and the row permutation are preserved exactly, so a table read
// back from a snapshot produces byte-identical query results.
//
// One format version (3) is written and read; all integers are
// little-endian and strings are length-prefixed by uint32:
//
//	offset 0: magic "FMSNAP\x00" + version byte (8 bytes total)
//	header:   uint32 blockSize
//	          uint64 rows
//	          uint32 #categorical columns
//	          uint32 #measure columns
//	per categorical column (declaration order):
//	          string name
//	          uint32 dictionary length, then each value as a string
//	          zero padding to the next 8-byte file offset
//	          rows × uint32 codes
//	per measure column (declaration order):
//	          string name
//	          zero padding to the next 8-byte file offset
//	          rows × float64 (IEEE 754 bits) values
//	block statistics, per categorical column (declaration order):
//	          uint32 hasPresence (1 iff the column's cardinality fits
//	          the presence cap; see PresenceFits)
//	          if 1: zero padding to the next 8-byte offset, then
//	          cardinality × wordsPerValue(numBlocks) uint64 value-major
//	          presence words (bit b of value v = block b may contain v)
//	block statistics, per measure column (declaration order):
//	          zero padding to the next 8-byte offset
//	          numBlocks × float64 per-block minima
//	          numBlocks × float64 per-block maxima
//	trailer:  uint32 CRC-32 (IEEE) of every byte after the magic
//	          (padding included)
//
// Every array starts on an 8-byte file offset, so an 8-byte-aligned copy
// of the file — a page-aligned mapping (OpenMmapFile) or ReadSnapshot's
// heap buffer — serves the arrays in place on little-endian hosts, and
// one parser (parseSnapshot) reads the format for both opens. The
// statistics section gives a mapped open zone maps without paging in the
// measure arrays. Versions 1 (unaligned) and 2 (no statistics section)
// are rejected; rewrite such files with datagen -snapshot or
// WriteSnapshot.

// snapshotMagic identifies snapshot files; its eighth byte is the format
// version.
var snapshotMagic = [8]byte{'F', 'M', 'S', 'N', 'A', 'P', 0x00, 3}

// ioChunk is the staging-buffer size for bulk code/value encoding.
const ioChunk = 1 << 16

// snapWriter encodes snapshot fields little-endian, tracking the absolute
// file offset for alignment padding and keeping the first write error
// (later writes are no-ops), so WriteSnapshot reads as the layout above.
type snapWriter struct {
	w   io.Writer
	off int64
	err error
}

func (sw *snapWriter) Write(p []byte) (int, error) {
	n, err := sw.w.Write(p)
	sw.off += int64(n)
	return n, err
}

// put writes one fixed-size value or slice of them.
func (sw *snapWriter) put(data any) {
	if sw.err == nil {
		sw.err = binary.Write(sw, binary.LittleEndian, data)
	}
}

func (sw *snapWriter) str(s string) {
	sw.put(uint32(len(s)))
	if sw.err == nil {
		_, sw.err = io.WriteString(sw, s)
	}
}

func (sw *snapWriter) pad8() {
	if pad := -sw.off & 7; pad > 0 {
		sw.put(make([]byte, pad))
	}
}

// putArray writes vals in ioChunk-sized pieces, so encoding never stages
// a whole column.
func putArray[T uint32 | uint64 | float64](sw *snapWriter, vals []T) {
	for len(vals) > 0 && sw.err == nil {
		n := min(len(vals), ioChunk/8)
		sw.put(vals[:n])
		vals = vals[n:]
	}
}

// WriteSnapshot serializes a table to w.
func WriteSnapshot(tbl *Table, w io.Writer) error {
	bw := bufio.NewWriterSize(w, ioChunk)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("colstore: writing snapshot magic: %w", err)
	}
	crc := crc32.NewIEEE()
	sw := &snapWriter{w: io.MultiWriter(bw, crc), off: int64(len(snapshotMagic))}
	sw.put(uint32(tbl.blockSize))
	sw.put(uint64(tbl.rows))
	sw.put(uint32(len(tbl.cols)))
	sw.put(uint32(len(tbl.measures)))
	for _, c := range tbl.cols {
		sw.str(c.Name)
		sw.put(uint32(c.Dict.Len()))
		for _, v := range c.Dict.values {
			sw.str(v)
		}
		sw.pad8()
		putArray(sw, c.codes)
	}
	for _, m := range tbl.measures {
		sw.str(m.Name)
		sw.pad8()
		putArray(sw, m.values)
	}
	// Block-statistics section: presence words per categorical column
	// (flagged, so over-cap columns cost 4 bytes), then per-block min/max
	// per measure. Everything is CRC-covered like the rest.
	stats := tbl.BlockStats().(*TableBlockStats)
	for _, c := range tbl.cols {
		words, _, ok := stats.PresenceWords(c.Name)
		if !ok {
			sw.put(uint32(0))
			continue
		}
		sw.put(uint32(1))
		sw.pad8()
		putArray(sw, words)
	}
	for _, m := range tbl.measures {
		sw.pad8()
		putArray(sw, stats.Lo[m.Name])
		putArray(sw, stats.Hi[m.Name])
	}
	if sw.err != nil {
		return sw.err
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSnapshot deserializes a table, verifying everything the format
// carries: magic, version, structure, every code's dictionary range, the
// stored block statistics and the CRC trailer. The whole snapshot is read
// into one private 8-byte-aligned buffer that the table's code and value
// slices alias, as a mapped table aliases its mapping.
func ReadSnapshot(r io.Reader) (*Table, error) { return readSnapshot(r, 0) }

// ReadSnapshotFile reads a table snapshot from path (see ReadSnapshot).
func ReadSnapshotFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readSnapshot(f, st.Size())
}

// readSnapshot is ReadSnapshot with a size hint for the buffer. The CRC
// is checked after the structural walk, so for every structural fault
// the heap and mmap opens report the same error.
func readSnapshot(r io.Reader, sizeHint int64) (*Table, error) {
	data, err := readAligned(r, sizeHint)
	if err != nil {
		return nil, fmt.Errorf("colstore: reading snapshot: %w", err)
	}
	tbl, err := parseSnapshot(data, true)
	if err != nil {
		return nil, err
	}
	n := len(data) - 4 // parseSnapshot ends exactly at the trailer
	if got, want := binary.LittleEndian.Uint32(data[n:]), crc32.ChecksumIEEE(data[len(snapshotMagic):n]); got != want {
		return nil, fmt.Errorf("colstore: snapshot CRC mismatch (file %08x, computed %08x)", got, want)
	}
	return tbl, nil
}

// readAligned reads r to EOF into a buffer allocated as []uint64, so
// every 8-byte file offset is 8-byte aligned in memory. The buffer starts
// at sizeHint and grows only as bytes arrive: nothing in the input can
// force an allocation its length does not back.
func readAligned(r io.Reader, sizeHint int64) ([]byte, error) {
	words := make([]uint64, sizeHint/8+1) // +1: room to observe EOF
	n := 0
	for {
		buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
		if n == len(buf) {
			grown := make([]uint64, 2*len(words))
			copy(grown, words)
			words = grown
			continue
		}
		m, err := r.Read(buf[n:])
		n += m
		if err == io.EOF {
			return buf[:n], nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// parseSnapshot walks a whole snapshot held in data, which must be 8-byte
// aligned in memory (a page-aligned mapping or readAligned's buffer), and
// builds a Table whose code/value slices alias it. Dictionaries and
// bookkeeping are heap-resident (they are small); only the per-row arrays
// stay in data. It is the only reader of the layout past the magic: both
// opens call it, so a snapshot is valid for one iff it is valid for the
// other, except for the two heap-only checks — ReadSnapshot's CRC and
// verifyRanges, which recomputes every stored per-block measure range
// from the values and compares them bitwise.
func parseSnapshot(data []byte, verifyRanges bool) (*Table, error) {
	off := 0
	corrupt := func(what string) error {
		return fmt.Errorf("colstore: snapshot: truncated or corrupt %s (offset %d)", what, off)
	}
	if len(data) < len(snapshotMagic) {
		return nil, corrupt("magic")
	}
	if !bytes.Equal(data[:7], snapshotMagic[:7]) {
		return nil, fmt.Errorf("colstore: not a snapshot file (bad magic)")
	}
	if v := data[7]; v != snapshotMagic[7] {
		return nil, fmt.Errorf("colstore: unsupported snapshot version %d (only version %d is read; rewrite older files with datagen -snapshot or colstore.WriteSnapshot)", v, snapshotMagic[7])
	}
	off = len(snapshotMagic)
	u32 := func(what string) (uint32, error) {
		if off+4 > len(data) {
			return 0, corrupt(what)
		}
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return v, nil
	}
	u64 := func(what string) (uint64, error) {
		if off+8 > len(data) {
			return 0, corrupt(what)
		}
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v, nil
	}
	str := func(what string) (string, error) {
		n, err := u32(what)
		if err != nil {
			return "", err
		}
		// Strings are names and dictionary values; 16 MiB is far beyond
		// any legitimate one.
		if n > 1<<24 || off+int(n) > len(data) {
			return "", corrupt(what)
		}
		s := string(data[off : off+int(n)])
		off += int(n)
		return s, nil
	}
	pad8 := func() error {
		aligned := (off + 7) &^ 7
		if aligned > len(data) {
			return corrupt("alignment padding")
		}
		for ; off < aligned; off++ {
			if data[off] != 0 {
				return fmt.Errorf("colstore: snapshot: nonzero alignment padding at offset %d", off)
			}
		}
		return nil
	}
	blockSize, err := u32("header")
	if err != nil {
		return nil, err
	}
	rows64, err := u64("header")
	if err != nil {
		return nil, err
	}
	ncols, err := u32("header")
	if err != nil {
		return nil, err
	}
	nmeas, err := u32("header")
	if err != nil {
		return nil, err
	}
	if blockSize == 0 || blockSize > maxSnapshotDim {
		return nil, fmt.Errorf("colstore: snapshot block size %d out of range", blockSize)
	}
	rows := int(rows64)
	if rows64 > maxSnapshotDim || rows < 0 || uint64(rows) != rows64 {
		// rows < 0 and the round trip catch 32-bit hosts, where the count
		// fits uint64 but not int.
		return nil, fmt.Errorf("colstore: snapshot row count %d out of range", rows64)
	}
	if ncols > 1<<16 || nmeas > 1<<16 {
		return nil, fmt.Errorf("colstore: snapshot declares %d columns, %d measures", ncols, nmeas)
	}
	tbl := &Table{
		colByName: make(map[string]int, ncols),
		measByID:  make(map[string]int, nmeas),
		rows:      rows,
		blockSize: int(blockSize),
	}
	// The structural walk only sizes the statistics; one Summarize pass
	// after it checks every code and computes the presence words (and,
	// with verifyRanges, the measure ranges), which are then checked
	// against the stored ones.
	nb := tbl.NumBlocks()
	stats := newBlockStats(nb)
	for ci := 0; ci < int(ncols); ci++ {
		name, err := str("column name")
		if err != nil {
			return nil, err
		}
		if _, dup := tbl.colByName[name]; dup {
			return nil, fmt.Errorf("colstore: snapshot has duplicate column %q", name)
		}
		dictLen, err := u32("dictionary")
		if err != nil {
			return nil, err
		}
		if dictLen > maxSnapshotDim {
			return nil, fmt.Errorf("colstore: snapshot dictionary size %d out of range", dictLen)
		}
		dict := NewDictionary()
		for i := 0; i < int(dictLen); i++ {
			v, err := str("dictionary value")
			if err != nil {
				return nil, err
			}
			if _, dup := dict.Code(v); dup {
				return nil, fmt.Errorf("colstore: snapshot column %q has duplicate dictionary value %q", name, v)
			}
			dict.Intern(v)
		}
		if err := pad8(); err != nil {
			return nil, err
		}
		// Division form: off+4*rows would overflow int on 32-bit hosts
		// for a hostile header, silently passing the check.
		if rows > 0 && (len(data)-off)/4 < rows {
			return nil, corrupt("codes")
		}
		stats.Presence[name] = nil // past the cap: codes checked only
		if PresenceFits(int(dictLen), nb) {
			stats.Presence[name] = make([]uint64, int(dictLen)*stats.Stride)
		}
		tbl.colByName[name] = len(tbl.cols)
		tbl.cols = append(tbl.cols, &Column{Name: name, Dict: dict, codes: castLE[uint32](data[off:], rows)})
		off += 4 * rows
	}
	for mi := 0; mi < int(nmeas); mi++ {
		name, err := str("measure name")
		if err != nil {
			return nil, err
		}
		if _, dup := tbl.measByID[name]; dup {
			return nil, fmt.Errorf("colstore: snapshot has duplicate measure %q", name)
		}
		if err := pad8(); err != nil {
			return nil, err
		}
		if rows > 0 && (len(data)-off)/8 < rows {
			return nil, corrupt("measure values")
		}
		if verifyRanges {
			stats.Lo[name], stats.Hi[name] = make([]float64, nb), make([]float64, nb)
		}
		tbl.measByID[name] = len(tbl.measures)
		tbl.measures = append(tbl.measures, &MeasureColumn{Name: name, values: castLE[float64](data[off:], rows)})
		off += 8 * rows
	}
	// An out-of-range code would later index candidate/group arrays out
	// of bounds mid-query.
	if err := stats.Summarize(tbl, 0, nb); err != nil {
		return nil, fmt.Errorf("colstore: snapshot %w", err)
	}
	// Stored presence words are cross-checked against the ones just
	// computed from the codes.
	for _, c := range tbl.cols {
		flag, err := u32("stats presence flag")
		if err != nil {
			return nil, err
		}
		words := stats.Presence[c.Name]
		if flag > 1 || (flag == 1) != (words != nil) {
			return nil, fmt.Errorf("colstore: snapshot column %q presence flag %d disagrees with cardinality cap", c.Name, flag)
		}
		if flag == 0 {
			continue
		}
		if err := pad8(); err != nil {
			return nil, err
		}
		if len(words) > 0 && (len(data)-off)/8 < len(words) {
			return nil, corrupt("stats presence words")
		}
		if !slices.Equal(castLE[uint64](data[off:], len(words)), words) {
			return nil, fmt.Errorf("colstore: snapshot column %q stored presence disagrees with codes", c.Name)
		}
		off += 8 * len(words)
	}
	// Measure ranges are copied off the stored section. Only verifyRanges
	// computed them, to check the stored ones bitwise: that reads the
	// measure arrays, which the mmap open deliberately never pages in at
	// open.
	for _, m := range tbl.measures {
		if err := pad8(); err != nil {
			return nil, err
		}
		if nb > 0 && (len(data)-off)/16 < nb {
			return nil, corrupt("stats measure ranges")
		}
		mlo, mhi := castLE[float64](data[off:], nb), castLE[float64](data[off+8*nb:], nb)
		off += 16 * nb
		if !verifyRanges {
			stats.Lo[m.Name], stats.Hi[m.Name] = slices.Clone(mlo), slices.Clone(mhi)
			continue
		}
		vlo, vhi := stats.Lo[m.Name], stats.Hi[m.Name]
		for b := range nb {
			if math.Float64bits(vlo[b]) != math.Float64bits(mlo[b]) || math.Float64bits(vhi[b]) != math.Float64bits(mhi[b]) {
				return nil, fmt.Errorf("colstore: snapshot measure %q stored range disagrees with values in block %d", m.Name, b)
			}
		}
	}
	if off+4 != len(data) {
		return nil, corrupt("CRC trailer")
	}
	tbl.setBlockStats(stats)
	return tbl, nil
}

// maxSnapshotDim bounds header-declared counts.
const maxSnapshotDim = 1 << 31

// castLE returns the first n little-endian values of type T in b. On a
// little-endian host it reinterprets b in place (b must be aligned for T:
// arrays start on 8-byte file offsets of an 8-byte-aligned buffer); on a
// big-endian host it decodes them into a fresh slice.
func castLE[T uint32 | uint64 | float64](b []byte, n int) []T {
	if n == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	size := int(unsafe.Sizeof(out[0]))
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), n*size)
	copy(raw, b)
	for i := 0; i < len(raw); i += size {
		slices.Reverse(raw[i : i+size])
	}
	return out
}

// WriteSnapshotFile atomically replaces path with a snapshot of tbl: it
// writes <path>.tmp, fsyncs it and renames it over path. A process that
// has the old file mapped keeps its pages (the old inode is never
// truncated), and a write that fails midway leaves the old file intact.
func WriteSnapshotFile(tbl *Table, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = WriteSnapshot(tbl, f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Best-effort directory sync so the rename itself is durable.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
