package colstore

import (
	"fmt"
	"math/rand"
	"sync"
)

// Column is a dictionary-encoded categorical column. Codes index into the
// column's Dictionary.
type Column struct {
	Name  string
	Dict  *Dictionary
	codes []uint32
}

// Code returns the dictionary code at row i.
func (c *Column) Code(i int) uint32 { return c.codes[i] }

// Codes returns the backing code slice for rows [lo, hi). The returned
// slice aliases column storage; callers MUST treat it as read-only — for
// mmap-backed tables it points into pages mapped read-only from the
// snapshot file, where a write faults. See the Reader aliasing contract.
func (c *Column) Codes(lo, hi int) []uint32 { return c.codes[lo:hi] }

// Cardinality returns the number of distinct values in the column's domain.
func (c *Column) Cardinality() int { return c.Dict.Len() }

// ColumnName implements ColumnReader.
func (c *Column) ColumnName() string { return c.Name }

// Dictionary implements ColumnReader.
func (c *Column) Dictionary() *Dictionary { return c.Dict }

// MeasureColumn is a numeric column used for SUM aggregations
// (Appendix A.1.1). Values must be non-negative for measure-biased
// sampling to be well defined.
type MeasureColumn struct {
	Name   string
	values []float64
}

// Value returns the measure at row i.
func (m *MeasureColumn) Value(i int) float64 { return m.values[i] }

// Values returns the backing values for rows [lo, hi). The returned slice
// aliases column storage; callers MUST treat it as read-only (mmap-backed
// tables serve it from read-only mapped pages). See the Reader contract.
func (m *MeasureColumn) Values(lo, hi int) []float64 { return m.values[lo:hi] }

// MeasureName implements MeasureReader.
func (m *MeasureColumn) MeasureName() string { return m.Name }

// Table is an immutable, column-oriented, in-memory relation divided into
// fixed-size blocks. All I/O in the FastMatch engine happens at block
// granularity.
type Table struct {
	cols      []*Column
	colByName map[string]int
	measures  []*MeasureColumn
	measByID  map[string]int
	rows      int
	blockSize int

	// stats holds the table's per-block statistics. Open paths that
	// already scan every row (snapshot read, mmap validation) pre-seed it
	// via setBlockStats; otherwise the first BlockStats call computes it
	// with one sequential pass, cached by statsOnce.
	statsOnce sync.Once
	stats     *TableBlockStats
}

// setBlockStats pre-seeds the table's block statistics from an open path
// that computed them during its own sequential pass. Must run before the
// table is shared; a later BlockStats call returns the seeded stats.
func (t *Table) setBlockStats(s *TableBlockStats) {
	t.statsOnce.Do(func() { t.stats = s })
}

// BlockStats implements BlockStatsReader. The first call on a table no
// open path seeded (builder-constructed tables) pays one sequential scan;
// every call after returns the cached statistics.
func (t *Table) BlockStats() BlockStats {
	t.statsOnce.Do(func() { t.stats = computeBlockStats(t) })
	return t.stats
}

// NumRows returns the number of tuples.
func (t *Table) NumRows() int { return t.rows }

// BlockSize returns the tuples-per-block granularity.
func (t *Table) BlockSize() int { return t.blockSize }

// NumBlocks returns the number of blocks (the last may be partial).
func (t *Table) NumBlocks() int {
	if t.rows == 0 {
		return 0
	}
	return (t.rows + t.blockSize - 1) / t.blockSize
}

// BlockSpan returns the row range [lo, hi) covered by block b.
func (t *Table) BlockSpan(b int) (lo, hi int) {
	lo = b * t.blockSize
	hi = lo + t.blockSize
	if hi > t.rows {
		hi = t.rows
	}
	return lo, hi
}

// Column returns the named categorical column.
func (t *Table) Column(name string) (*Column, error) {
	idx, ok := t.colByName[name]
	if !ok {
		return nil, fmt.Errorf("colstore: no column %q", name)
	}
	return t.cols[idx], nil
}

// Columns lists the categorical column names in declaration order.
func (t *Table) Columns() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name
	}
	return names
}

// Measure returns the named measure column.
func (t *Table) Measure(name string) (*MeasureColumn, error) {
	idx, ok := t.measByID[name]
	if !ok {
		return nil, fmt.Errorf("colstore: no measure column %q", name)
	}
	return t.measures[idx], nil
}

// ColumnByName implements Reader, returning the named categorical column
// behind the backend-neutral ColumnReader interface. (Column keeps the
// concrete *Column for builder-path callers.)
func (t *Table) ColumnByName(name string) (ColumnReader, error) {
	return t.Column(name)
}

// MeasureNames implements Reader, listing measure columns in declaration
// order.
func (t *Table) MeasureNames() []string {
	names := make([]string, len(t.measures))
	for i, m := range t.measures {
		names[i] = m.Name
	}
	return names
}

// MeasureByName implements Reader.
func (t *Table) MeasureByName(name string) (MeasureReader, error) {
	return t.Measure(name)
}

// Storage implements Reader: everything lives on the Go heap.
func (t *Table) Storage() StorageStats {
	return StorageStats{Backend: "inmem", HeapBytes: t.heapBytes(true)}
}

// heapBytes estimates the table's heap footprint; arrays selects whether
// the code/value arrays count (they do not for mmap-backed tables, whose
// arrays alias the file mapping).
func (t *Table) heapBytes(arrays bool) int64 {
	var n int64
	const stringHeader = 16 // string header per dictionary entry
	for _, c := range t.cols {
		if arrays {
			n += int64(len(c.codes)) * 4
		}
		for _, v := range c.Dict.values {
			n += int64(len(v)) + stringHeader
		}
	}
	if arrays {
		for _, m := range t.measures {
			n += int64(len(m.values)) * 8
		}
	}
	return n
}

// NewColumn wraps pre-encoded codes as a categorical column without
// copying. The codes slice is aliased, not copied — the caller promises
// that every code is a valid index into dict and that neither the slice
// contents nor the dictionary mutate for the column's lifetime (the
// Reader immutability contract). Code validity is deliberately not
// re-verified here: the live-ingest backend constructs fresh column
// wrappers over its storage spine on every published view, and an O(rows)
// validation pass per view would turn appends quadratic. Validation
// belongs at the boundary where the codes are produced (the interning
// write path, the snapshot reader, the WAL replay).
func NewColumn(name string, dict *Dictionary, codes []uint32) *Column {
	return &Column{Name: name, Dict: dict, codes: codes}
}

// NewMeasureColumn wraps pre-encoded measure values as a column without
// copying; the same aliasing and immutability contract as NewColumn
// applies.
func NewMeasureColumn(name string, values []float64) *MeasureColumn {
	return &MeasureColumn{Name: name, values: values}
}

// NewTable assembles an immutable Table directly from constructed
// columns, the zero-copy counterpart of Builder.Build for backends that
// already hold columnar data (sealed ingest segments, ingest views).
// Every column and measure must have exactly rows entries; blockSize ≤ 0
// selects DefaultBlockSize.
func NewTable(blockSize, rows int, cols []*Column, measures []*MeasureColumn) (*Table, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if rows < 0 {
		return nil, fmt.Errorf("colstore: negative row count %d", rows)
	}
	t := &Table{
		colByName: make(map[string]int, len(cols)),
		measByID:  make(map[string]int, len(measures)),
		rows:      rows,
		blockSize: blockSize,
	}
	for _, c := range cols {
		if len(c.codes) != rows {
			return nil, fmt.Errorf("colstore: column %q has %d rows, want %d", c.Name, len(c.codes), rows)
		}
		if _, dup := t.colByName[c.Name]; dup {
			return nil, fmt.Errorf("colstore: duplicate column %q", c.Name)
		}
		t.colByName[c.Name] = len(t.cols)
		t.cols = append(t.cols, c)
	}
	for _, m := range measures {
		if len(m.values) != rows {
			return nil, fmt.Errorf("colstore: measure %q has %d rows, want %d", m.Name, len(m.values), rows)
		}
		if _, dup := t.measByID[m.Name]; dup {
			return nil, fmt.Errorf("colstore: duplicate measure %q", m.Name)
		}
		t.measByID[m.Name] = len(t.measures)
		t.measures = append(t.measures, m)
	}
	return t, nil
}

// Compile-time interface conformance checks: the in-memory table is the
// reference Reader backend.
var (
	_ Reader           = (*Table)(nil)
	_ BlockStatsReader = (*Table)(nil)
	_ ColumnReader     = (*Column)(nil)
	_ MeasureReader    = (*MeasureColumn)(nil)
)

// Builder accumulates rows and produces an immutable Table. Columns are
// declared up front; rows are appended code-wise (fast path, used by the
// synthetic generators) or value-wise.
type Builder struct {
	cols      []*Column
	colByName map[string]int
	measures  []*MeasureColumn
	measByID  map[string]int
	rows      int
	blockSize int
}

// DefaultBlockSize is the block size, in tuples, of every table built
// without one. The paper's 600-byte column blocks hold 150 four-byte
// codes; 256 is the nearest power of two above it.
const DefaultBlockSize = 256

// NewBuilder creates a builder with the given block size (tuples per
// block); blockSize ≤ 0 selects DefaultBlockSize.
func NewBuilder(blockSize int) *Builder {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &Builder{
		colByName: make(map[string]int),
		measByID:  make(map[string]int),
		blockSize: blockSize,
	}
}

// AddColumn declares a categorical column with its own dictionary and
// returns it for direct code appends.
func (b *Builder) AddColumn(name string) (*Column, error) {
	if _, dup := b.colByName[name]; dup {
		return nil, fmt.Errorf("colstore: duplicate column %q", name)
	}
	c := &Column{Name: name, Dict: NewDictionary()}
	b.colByName[name] = len(b.cols)
	b.cols = append(b.cols, c)
	return c, nil
}

// AddMeasure declares a numeric measure column.
func (b *Builder) AddMeasure(name string) (*MeasureColumn, error) {
	if _, dup := b.measByID[name]; dup {
		return nil, fmt.Errorf("colstore: duplicate measure %q", name)
	}
	m := &MeasureColumn{Name: name}
	b.measByID[name] = len(b.measures)
	b.measures = append(b.measures, m)
	return m, nil
}

// AppendRow appends one tuple given per-column string values (keyed by
// column name) and per-measure numeric values. Missing columns are an
// error: the store has no NULL concept, mirroring the paper's
// preprocessing step that drops rows with N/A values.
func (b *Builder) AppendRow(values map[string]string, measures map[string]float64) error {
	for _, c := range b.cols {
		v, ok := values[c.Name]
		if !ok {
			return fmt.Errorf("colstore: row missing value for column %q", c.Name)
		}
		c.codes = append(c.codes, c.Dict.Intern(v))
	}
	for _, m := range b.measures {
		v, ok := measures[m.Name]
		if !ok {
			return fmt.Errorf("colstore: row missing measure %q", m.Name)
		}
		if v < 0 {
			return fmt.Errorf("colstore: negative measure %q = %g", m.Name, v)
		}
		m.values = append(m.values, v)
	}
	b.rows++
	return nil
}

// AppendCodes appends one tuple given pre-interned codes in column
// declaration order, plus measures in declaration order. This is the fast
// path used by the dataset generators.
func (b *Builder) AppendCodes(codes []uint32, measures []float64) error {
	if len(codes) != len(b.cols) {
		return fmt.Errorf("colstore: got %d codes for %d columns", len(codes), len(b.cols))
	}
	if len(measures) != len(b.measures) {
		return fmt.Errorf("colstore: got %d measures for %d measure columns", len(measures), len(b.measures))
	}
	for i, c := range b.cols {
		if int(codes[i]) >= c.Dict.Len() {
			return fmt.Errorf("colstore: code %d out of range for column %q (dict size %d)",
				codes[i], c.Name, c.Dict.Len())
		}
		c.codes = append(c.codes, codes[i])
	}
	for i, m := range b.measures {
		if measures[i] < 0 {
			return fmt.Errorf("colstore: negative measure %q = %g", b.measures[i].Name, measures[i])
		}
		m.values = append(m.values, measures[i])
	}
	b.rows++
	return nil
}

// Grow reserves capacity for n additional rows in every column.
func (b *Builder) Grow(n int) {
	for _, c := range b.cols {
		if cap(c.codes)-len(c.codes) < n {
			grown := make([]uint32, len(c.codes), len(c.codes)+n)
			copy(grown, c.codes)
			c.codes = grown
		}
	}
	for _, m := range b.measures {
		if cap(m.values)-len(m.values) < n {
			grown := make([]float64, len(m.values), len(m.values)+n)
			copy(grown, m.values)
			m.values = grown
		}
	}
}

// Shuffle randomly permutes the rows of every column with a shared
// Fisher–Yates permutation seeded by seed. After shuffling, a sequential
// scan from any starting block is a uniform sample without replacement —
// the data-layout trick of Challenge 1.
func (b *Builder) Shuffle(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := b.rows - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		for _, c := range b.cols {
			c.codes[i], c.codes[j] = c.codes[j], c.codes[i]
		}
		for _, m := range b.measures {
			m.values[i], m.values[j] = m.values[j], m.values[i]
		}
	}
}

// Build finalizes the table. The builder must not be reused afterwards.
func (b *Builder) Build() *Table {
	return &Table{
		cols:      b.cols,
		colByName: b.colByName,
		measures:  b.measures,
		measByID:  b.measByID,
		rows:      b.rows,
		blockSize: b.blockSize,
	}
}
