package ingest

import (
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"fastmatch/internal/colstore"
	"fastmatch/internal/obs/logx"
)

// dictState is one column's mutable interning state. The value list is
// append-only, so published dictionary snapshots (immutable
// colstore.Dictionary values with a prefix of the codes) stay valid
// forever — the prefix property that also keeps codes stable across
// segment files written at different times.
type dictState struct {
	values  []string
	index   map[string]uint32
	snap    *colstore.Dictionary
	snapLen int
}

func newDictState() *dictState {
	return &dictState{index: make(map[string]uint32)}
}

func (d *dictState) intern(v string) uint32 {
	if code, ok := d.index[v]; ok {
		return code
	}
	code := uint32(len(d.values))
	d.values = append(d.values, v)
	d.index[v] = code
	return code
}

// snapshot returns an immutable dictionary covering every code assigned
// so far, cached until the cardinality changes.
func (d *dictState) snapshot() *colstore.Dictionary {
	if d.snap == nil || d.snapLen != len(d.values) {
		snap, err := colstore.NewDictionaryFromValues(d.values)
		if err != nil {
			// Unreachable: intern never assigns a value twice.
			panic(fmt.Sprintf("ingest: dictionary snapshot: %v", err))
		}
		d.snap, d.snapLen = snap, len(d.values)
	}
	return d.snap
}

// WritableTable is the live-ingestion backend: an appendable table whose
// read side is served through immutable, snapshot-isolated TableViews
// (see the package doc for the architecture). All methods are safe for
// concurrent use; appends are serialized by an internal mutex, queries
// never take it beyond the brief View acquisition.
type WritableTable struct {
	dir    string
	schema Schema
	opts   Options
	log    *slog.Logger
	gen    atomic.Uint64

	mu            sync.Mutex
	dicts         []*dictState
	codes         [][]uint32  // the columnar spine: per column, append-only
	vals          [][]float64 // per measure, append-only
	rows          int
	sealedRows    int
	persistedRows int
	segments      []*segment // sealed, row order; canonical list holds one pin each
	wal           *wal
	curView       *TableView
	closed        bool

	// curViewFast mirrors curView for View's lock-free
	// unchanged-generation path (updated under mu, read without it).
	curViewFast atomic.Pointer[TableView]
	measMin     []float64
	measMax     []float64
	measSeen    []bool

	appendBatches  int64
	appendedRows   int64
	replayedRows   int64
	seals          int64
	compactions    int64
	compactErrs    int64
	lastCompactErr string

	compactMu sync.Mutex // serializes CompactNow with the background loop
	nudge     chan struct{}
	stop      chan struct{}
	done      chan struct{}
}

// Open creates or re-opens a writable table rooted at dir. For a fresh
// directory the schema is required; for an existing one it may be left
// empty (zero columns) to adopt the stored schema, and is otherwise
// verified to match. Re-opening loads the manifest's compacted segment
// files, replays the WAL tail (recovering exactly the acked rows, see
// the package doc), and resumes appending where the log left off.
func Open(dir string, schema Schema, opts Options) (*WritableTable, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, found, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if found {
		if len(schema.Columns) == 0 {
			schema = m.Schema
		} else {
			if schema.BlockSize <= 0 {
				// An omitted block size adopts the stored one (like
				// SealRows), so re-opening with just the column list works
				// for tables created with a non-default block size.
				schema.BlockSize = m.Schema.BlockSize
			}
			if err := schema.validate(); err != nil {
				return nil, err
			}
			if !schema.equal(m.Schema) {
				return nil, fmt.Errorf("ingest: schema mismatch with existing table in %s", dir)
			}
		}
		if opts.SealRows <= 0 {
			opts.SealRows = m.SealRows
		}
	} else if err := schema.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(schema.BlockSize)

	t := &WritableTable{
		dir:    dir,
		schema: schema,
		opts:   opts,
		log:    logx.OrDiscard(opts.Logger),
		nudge:  make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	t.gen.Store(1)
	t.dicts = make([]*dictState, len(schema.Columns))
	t.codes = make([][]uint32, len(schema.Columns))
	for i := range t.dicts {
		t.dicts[i] = newDictState()
	}
	t.vals = make([][]float64, len(schema.Measures))
	t.measMin = make([]float64, len(schema.Measures))
	t.measMax = make([]float64, len(schema.Measures))
	t.measSeen = make([]bool, len(schema.Measures))

	// Everything after loadSegments may hold mmap handles; release them
	// on any failed-open path so a retried load (e.g. /v1/admin/load
	// against a dir with a bad WAL tail) doesn't leak a mapping per
	// segment per attempt.
	fail := func(err error) (*WritableTable, error) {
		for _, s := range t.segments {
			s.unpin()
		}
		if t.wal != nil {
			_ = t.wal.close()
		}
		return nil, err
	}

	if !found {
		m = manifest{Version: 1, Schema: schema, SealRows: opts.SealRows}
		if err := writeManifest(dir, m); err != nil {
			return nil, err
		}
	} else {
		if err := t.loadSegments(m); err != nil {
			return fail(err)
		}
		if err := removeOrphans(dir, m); err != nil {
			return fail(err)
		}
	}

	// Replay the WAL tail through the same interning path as live
	// appends: codes re-derive deterministically from the replayed value
	// strings, continuing the segment files' dictionaries.
	files, err := walReplay(dir, t.schema, t.applyReplayed)
	if err != nil {
		return fail(err)
	}
	t.wal, err = adoptReplayed(dir, files, t.rows)
	if err != nil {
		return fail(err)
	}
	t.log.Info("ingest table opened",
		"dir", dir, "rows", t.rows, "replayed_rows", t.replayedRows,
		"segments", len(t.segments), "wal_files", len(files))
	if t.opts.CompactInterval > 0 {
		go t.runCompactor()
	} else {
		close(t.done)
	}
	return t, nil
}

// loadSegments opens every manifest-listed segment file, rebuilds the
// columnar spine and dictionaries from them, and installs them as
// pinned, file-backed segments.
func (t *WritableTable) loadSegments(m manifest) error {
	for _, ms := range m.Segments {
		reader, err := colstore.OpenMmapFile(filepath.Join(t.dir, ms.File))
		if err != nil {
			return fmt.Errorf("ingest: loading segment %s: %w", ms.File, err)
		}
		if reader.NumRows() != ms.Rows || reader.BlockSize() != t.schema.BlockSize {
			reader.Close()
			return fmt.Errorf("ingest: segment %s shape mismatch (rows %d want %d, block %d want %d)",
				ms.File, reader.NumRows(), ms.Rows, reader.BlockSize(), t.schema.BlockSize)
		}
		if err := t.adoptSegmentData(reader, ms); err != nil {
			reader.Close()
			return err
		}
		t.segments = append(t.segments, newSegment(ms.FirstRow, reader, ms.File))
	}
	t.rows = m.PersistedRows
	t.sealedRows = m.PersistedRows
	t.persistedRows = m.PersistedRows
	return nil
}

// adoptSegmentData extends the dictionaries and spine with one loaded
// segment, verifying the dictionary prefix property (every file's
// dictionary must continue the previous files' code assignment exactly).
func (t *WritableTable) adoptSegmentData(reader colstore.Reader, ms manifestSegment) error {
	n := reader.NumRows()
	for i, name := range t.schema.Columns {
		col, err := reader.ColumnByName(name)
		if err != nil {
			return fmt.Errorf("ingest: segment %s: %w", ms.File, err)
		}
		for code, v := range col.Dictionary().Values() {
			if got := t.dicts[i].intern(v); got != uint32(code) {
				return fmt.Errorf("ingest: segment %s column %q breaks the dictionary prefix property at code %d",
					ms.File, name, code)
			}
		}
		t.codes[i] = append(t.codes[i], col.Codes(0, n)...)
	}
	for j, name := range t.schema.Measures {
		meas, err := reader.MeasureByName(name)
		if err != nil {
			return fmt.Errorf("ingest: segment %s: %w", ms.File, err)
		}
		vals := meas.Values(0, n)
		t.vals[j] = append(t.vals[j], vals...)
		for _, v := range vals {
			t.observeMeasure(j, v)
		}
	}
	return nil
}

// applyReplayed is the WAL replay callback: skip rows already persisted
// in segment files, append the rest through the normal interning path.
func (t *WritableTable) applyReplayed(firstRow int, rows []Row) error {
	if firstRow+len(rows) <= t.rows {
		return nil // fully covered by persisted segments
	}
	if firstRow > t.rows {
		return fmt.Errorf("ingest: WAL gap: record starts at row %d but table has %d rows", firstRow, t.rows)
	}
	rows = rows[t.rows-firstRow:]
	t.internRows(rows)
	t.replayedRows += int64(len(rows))
	return nil
}

// validateRows rejects a batch before anything is logged: appends are
// all-or-nothing, following the batch Builder's contract (every column
// and measure present, measures non-negative) and tightening it for
// wire-facing input — non-finite measures are rejected (NaN would
// poison every downstream aggregate and replay durably forever), and so
// are unknown keys (the CSV path errors on unknown header fields; the
// JSON path must not silently drop the same mistake).
func (t *WritableTable) validateRows(rows []Row) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("ingest: %w: %s", ErrInvalidRow, fmt.Sprintf(format, args...))
	}
	for i, r := range rows {
		for _, c := range t.schema.Columns {
			if _, ok := r.Values[c]; !ok {
				return bad("row %d missing value for column %q", i, c)
			}
		}
		for _, m := range t.schema.Measures {
			v, ok := r.Measures[m]
			if !ok {
				return bad("row %d missing measure %q", i, m)
			}
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return bad("row %d: measure %q = %g (must be finite and non-negative)", i, m, v)
			}
		}
		if len(r.Values) > len(t.schema.Columns) {
			for k := range r.Values {
				if !t.hasColumn(k) {
					return bad("row %d has unknown column %q", i, k)
				}
			}
		}
		if len(r.Measures) > len(t.schema.Measures) {
			for k := range r.Measures {
				if !t.hasMeasure(k) {
					return bad("row %d has unknown measure %q", i, k)
				}
			}
		}
	}
	return nil
}

func (t *WritableTable) hasColumn(name string) bool {
	for _, c := range t.schema.Columns {
		if c == name {
			return true
		}
	}
	return false
}

func (t *WritableTable) hasMeasure(name string) bool {
	for _, m := range t.schema.Measures {
		if m == name {
			return true
		}
	}
	return false
}

// Append logs and applies one batch of rows. It returns only after the
// batch's WAL record is durable (written, and fsynced unless
// Options.NoSync) — the returned result is the ack. The batch is
// all-or-nothing: a validation error leaves the table untouched.
func (t *WritableTable) Append(rows []Row) (AppendResult, error) {
	if len(rows) == 0 {
		return AppendResult{}, fmt.Errorf("ingest: %w: empty append batch", ErrInvalidRow)
	}
	if err := t.validateRows(rows); err != nil {
		return AppendResult{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return AppendResult{}, fmt.Errorf("ingest: %w", ErrClosed)
	}
	firstRow := t.rows
	if err := t.wal.append(t.schema, firstRow, rows, !t.opts.NoSync); err != nil {
		return AppendResult{}, err
	}
	t.internRows(rows)
	t.appendBatches++
	t.appendedRows += int64(len(rows))
	gen := t.gen.Add(1)
	return AppendResult{
		FirstRow:   firstRow,
		Rows:       len(rows),
		TotalRows:  t.rows,
		Generation: gen,
		Synced:     !t.opts.NoSync,
	}, nil
}

// internRows appends validated rows to the spine and seals full
// segments. Caller holds t.mu (or is the single-threaded open path).
func (t *WritableTable) internRows(rows []Row) {
	for _, r := range rows {
		for i, c := range t.schema.Columns {
			t.codes[i] = append(t.codes[i], t.dicts[i].intern(r.Values[c]))
		}
		for j, m := range t.schema.Measures {
			v := r.Measures[m]
			t.vals[j] = append(t.vals[j], v)
			t.observeMeasure(j, v)
		}
		t.rows++
	}
	for t.rows-t.sealedRows >= t.opts.SealRows {
		t.seal()
	}
}

func (t *WritableTable) observeMeasure(j int, v float64) {
	if !t.measSeen[j] {
		t.measMin[j], t.measMax[j] = v, v
		t.measSeen[j] = true
		return
	}
	if v < t.measMin[j] {
		t.measMin[j] = v
	}
	if v > t.measMax[j] {
		t.measMax[j] = v
	}
}

// seal freezes the next SealRows rows into an immutable segment whose
// reader aliases the spine (zero copy). Its block statistics are computed
// on first use, off the append path. Caller holds t.mu.
func (t *WritableTable) seal() {
	lo, hi := t.sealedRows, t.sealedRows+t.opts.SealRows
	tbl, err := t.rangeTable(lo, hi)
	if err != nil {
		panic(fmt.Sprintf("ingest: sealing [%d,%d): %v", lo, hi, err)) // shape invariants guarantee success
	}
	seg := newSegment(lo, tbl, "")
	t.segments = append(t.segments, seg)
	t.sealedRows = hi
	t.seals++
	t.log.Debug("segment sealed", "dir", t.dir, "first_row", lo, "rows", hi-lo, "seals", t.seals)
	select {
	case t.nudge <- struct{}{}:
	default:
	}
}

// rangeTable wraps spine rows [lo, hi) as an immutable block-aligned
// table (lo must be a block multiple). Caller holds t.mu.
func (t *WritableTable) rangeTable(lo, hi int) (*colstore.Table, error) {
	cols := make([]*colstore.Column, len(t.schema.Columns))
	for i, name := range t.schema.Columns {
		cols[i] = colstore.NewColumn(name, t.dicts[i].snapshot(), t.codes[i][lo:hi:hi])
	}
	measures := make([]*colstore.MeasureColumn, len(t.schema.Measures))
	for j, name := range t.schema.Measures {
		measures[j] = colstore.NewMeasureColumn(name, t.vals[j][lo:hi:hi])
	}
	return colstore.NewTable(t.schema.BlockSize, hi-lo, cols, measures)
}

// View returns a retained, immutable snapshot of the table at its
// current generation; pair every View with one Release. Consecutive
// calls at an unchanged generation share one cached view (and its
// stitched indexes, via the engine's caches).
//
// The unchanged-generation path is lock-free, so queries between
// appends never wait on the table mutex — in particular not on an
// in-flight append's WAL fsync. Only a view of a *new* generation
// takes the mutex (it must: the rows it wants are being applied under
// it).
func (t *WritableTable) View() (*TableView, error) {
	if v := t.curViewFast.Load(); v != nil && v.gen == t.gen.Load() && v.tryRetain() {
		// Re-check after the retain: if the generation moved in between,
		// this snapshot is stale — fall through to the slow path.
		if v.gen == t.gen.Load() {
			return v, nil
		}
		v.Release()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("ingest: %w", ErrClosed)
	}
	gen := t.gen.Load()
	if t.curView != nil && t.curView.gen == gen {
		t.curView.Retain()
		return t.curView, nil
	}
	inner, err := t.rangeTable(0, t.rows)
	if err != nil {
		return nil, err
	}
	segs := make([]*segment, len(t.segments))
	copy(segs, t.segments)
	v := newView(inner, segs, t.sealedRows, gen)
	if t.curView != nil {
		t.curView.Release()
	}
	t.curView = v
	t.curViewFast.Store(v)
	v.Retain() // the caller's reference; newView's initial ref is the cache's
	return v, nil
}

// Generation returns the current data version; it increases with every
// acked append.
func (t *WritableTable) Generation() uint64 { return t.gen.Load() }

// Schema returns the table's schema.
func (t *WritableTable) Schema() Schema { return t.schema }

// Dir returns the table's storage directory.
func (t *WritableTable) Dir() string { return t.dir }

// Rows returns the current row count.
func (t *WritableTable) Rows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rows
}

// Stats snapshots the table's ingest counters.
func (t *WritableTable) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Stats{
		Rows:             t.rows,
		SealedRows:       t.sealedRows,
		PersistedRows:    t.persistedRows,
		Generation:       t.gen.Load(),
		Segments:         len(t.segments),
		AppendBatches:    t.appendBatches,
		AppendedRows:     t.appendedRows,
		ReplayedRows:     t.replayedRows,
		Seals:            t.seals,
		Compactions:      t.compactions,
		CompactErrors:    t.compactErrs,
		LastCompactError: t.lastCompactErr,
	}
	for _, seg := range t.segments {
		if seg.file != "" {
			s.SegmentFiles++
		}
		s.SegmentPins += seg.pins.Load()
	}
	if t.wal != nil {
		s.WALBytes = t.wal.totalBytes()
		s.WALFiles = t.wal.numFiles()
		s.WALSyncs = t.wal.syncs
	}
	for j, name := range t.schema.Measures {
		if !t.measSeen[j] {
			continue
		}
		if s.MeasureRanges == nil {
			s.MeasureRanges = make(map[string]MeasureRange, len(t.schema.Measures))
		}
		s.MeasureRanges[name] = MeasureRange{Min: t.measMin[j], Max: t.measMax[j]}
	}
	return s
}

// Close stops the background compactor, syncs and closes the WAL, and
// releases the table's own references. Outstanding views stay fully
// readable; the buffer tail (rows not yet compacted) is durable in the
// WAL and replays on the next Open.
func (t *WritableTable) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()

	close(t.stop)
	<-t.done

	t.mu.Lock()
	defer t.mu.Unlock()
	var err error
	if t.wal != nil {
		err = t.wal.close()
	}
	if t.curView != nil {
		t.curViewFast.Store(nil)
		t.curView.Release()
		t.curView = nil
	}
	for _, seg := range t.segments {
		seg.unpin() // the canonical list's reference
	}
	t.segments = nil
	return err
}
