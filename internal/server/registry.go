package server

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastmatch/internal/cluster"
	"fastmatch/internal/colstore"
	"fastmatch/internal/engine"
	"fastmatch/internal/ingest"
)

// TableSpec describes one dataset to load into the registry: from CSV
// (parsed and optionally shuffled), from a binary snapshot (block layout
// preserved exactly; see colstore.WriteSnapshot), or as a live
// ingest-backed table (a WAL-backed directory accepting appends via
// POST /v1/tables/{name}/rows). It doubles as the body of
// POST /v1/admin/load.
type TableSpec struct {
	// Name registers the table for /v1/query requests.
	Name string `json:"name"`
	// Path locates the data file — or, for the ingest backend, the
	// table's storage directory (created if absent).
	Path string `json:"path"`
	// Format is "csv" or "snapshot"; empty infers from the extension
	// (.fms/.snap/.snapshot → snapshot, anything else → csv). Ignored by
	// the ingest backend.
	Format string `json:"format,omitempty"`
	// Measures lists CSV header names to load as numeric measure columns
	// (ignored for snapshots, which carry their own schema); for the
	// ingest backend it declares the schema's measure columns.
	Measures []string `json:"measures,omitempty"`
	// Backend selects the storage backend: "inmem" (default; parse onto
	// the heap), "mmap" (zero-copy map a snapshot), or "ingest" (live
	// appendable table rooted at Path, WAL-replayed on load). CSV tables
	// are always in-memory; combining csv with mmap is an error.
	Backend string `json:"backend,omitempty"`
	// Columns declares the ingest backend's categorical columns when
	// creating a fresh table directory (an existing directory carries its
	// own schema and Columns may be omitted).
	Columns []string `json:"columns,omitempty"`
	// SealRows overrides the ingest backend's segment-seal granularity
	// (≤ 0 keeps the stored or default value).
	SealRows int `json:"seal_rows,omitempty"`
	// BlockSize overrides the CSV or ingest table's block granularity
	// (≤ 0 default).
	BlockSize int `json:"block_size,omitempty"`
	// ShuffleSeed shuffles CSV rows after loading so sequential scans are
	// uniform samples. Nil selects seed 1: an unshuffled table would
	// silently break the sampling executors' statistical guarantees, so
	// opting out (pointer to a negative value) is explicit.
	ShuffleSeed *int64 `json:"shuffle_seed,omitempty"`
	// QueryTimeoutMS is this table's per-request query timeout in
	// milliseconds: a run past it stops and the response carries the
	// best-effort partial answer. 0 inherits Config.QueryTimeout;
	// negative disables the timeout even when a server default is set.
	QueryTimeoutMS int64 `json:"query_timeout_ms,omitempty"`
	// BlockDelayUS adds an artificial per-block read latency in
	// microseconds (colstore.NewThrottledReader): a storage-latency
	// simulator for exercising progressive delivery, timeouts, and
	// cancellation against small datasets. Static backends only.
	BlockDelayUS int64 `json:"block_delay_us,omitempty"`
	// AuditFraction overrides Config.AuditFraction for this table: the
	// fraction of completed sampling-executor answers to shadow-audit
	// against an exact re-execution. Nil inherits the server default;
	// a negative value disables auditing even when a default is set.
	// Rejected on a coordinated table, whose answers are exact.
	AuditFraction *float64 `json:"audit_fraction,omitempty"`
	// Shards declares a coordinated table: no local data — queries
	// scatter-gather across these shard daemons' HTTP APIs and fold
	// their partials (see internal/cluster), answering every query
	// exactly. Order must match the row-range partition (datagen -shards
	// writes shards in that order). Exclusive with Path/Format/Backend
	// and AuditFraction.
	Shards []cluster.ShardRef `json:"shards,omitempty"`
}

// TableInfo describes one registered table, as listed by /v1/tables.
type TableInfo struct {
	Name      string `json:"name"`
	Rows      int    `json:"rows"`
	Blocks    int    `json:"blocks"`
	BlockSize int    `json:"block_size"`
	// Columns lists categorical columns with their cardinalities.
	Columns []ColumnInfo `json:"columns"`
	// Source is the file (or ingest directory) the table was loaded from
	// ("(in-memory)" for tables registered programmatically).
	Source string `json:"source"`
	// Storage reports the backend serving the table and its mapped/heap
	// residency.
	Storage colstore.StorageStats `json:"storage"`
	// Ingest carries live-table counters (nil for static backends).
	Ingest   *ingest.Stats `json:"ingest,omitempty"`
	LoadedAt time.Time     `json:"loaded_at"`
}

// ColumnInfo pairs a categorical column name with its cardinality.
type ColumnInfo struct {
	Name        string `json:"name"`
	Cardinality int    `json:"cardinality"`
}

// Registry errors the handlers map onto HTTP statuses.
var (
	errTableNotFound = errors.New("table not found")
	errTableBusy     = errors.New("table busy")
	errNotIngest     = errors.New("table backend does not accept appends")
	// errCoordinatedAudit refuses an audit fraction on a coordinated
	// table: its answers are exact, so there is nothing to audit, and a
	// silently ignored setting would be a trap.
	errCoordinatedAudit = errors.New("audit_fraction does not apply to a coordinated table: its answers are exact")
)

// tableEntry is one registered table. Static backends bind one Engine at
// load time; ingest-backed tables bind an Engine per data generation —
// the entry caches the latest (engine, view) pair and refreshes it when
// the generation advances, so repeated queries between appends share
// plans, stitched indexes, and the engine's singleflight caches.
type tableEntry struct {
	name     string
	source   string
	metrics  *tableMetrics
	loadedAt time.Time
	// incarnation distinguishes same-named tables across unload/load
	// cycles in the plan and result cache keys.
	incarnation uint64
	// queryTimeout is the table's per-request timeout: 0 inherits the
	// server default, negative disables it.
	queryTimeout time.Duration
	// auditFraction is the table's shadow-audit fraction override: nil
	// inherits Config.AuditFraction, negative disables.
	auditFraction *float64
	// inflight counts requests currently using the entry; unload refuses
	// (409) while it is nonzero.
	inflight atomic.Int64

	eng *engine.Engine // static backends

	// coord marks a coordinated table: queries scatter-gather across
	// this client's shard daemons instead of a local engine (eng and
	// live are both nil — guard every engineNow path).
	coord *cluster.Client

	live     *ingest.WritableTable // ingest backend
	liveMu   sync.Mutex
	liveGen  uint64
	liveEng  *engine.Engine
	liveView *ingest.TableView
}

// release pairs with registry.acquire.
func (e *tableEntry) release() { e.inflight.Add(-1) }

// engineNow returns the engine serving the entry's current data version,
// its generation (0 for static tables), and a cleanup the caller must
// run when done with the engine. For live tables the underlying view is
// retained for the caller, so a concurrent append (which swaps the
// cached view) can never release pinned segments out from under a
// running query.
func (e *tableEntry) engineNow() (*engine.Engine, uint64, func(), error) {
	if e.live == nil {
		return e.eng, 0, func() {}, nil
	}
	e.liveMu.Lock()
	defer e.liveMu.Unlock()
	if e.liveEng == nil || e.live.Generation() != e.liveGen {
		v, err := e.live.View()
		if err != nil {
			return nil, 0, nil, err
		}
		if e.liveView != nil {
			e.liveView.Release()
		}
		e.liveView = v
		e.liveGen = v.Generation()
		e.liveEng = engine.New(v)
	}
	view := e.liveView
	view.Retain()
	return e.liveEng, e.liveGen, view.Release, nil
}

// close releases the entry's storage resources (unload path; the caller
// guarantees no requests are in flight).
func (e *tableEntry) close() error {
	if e.coord != nil {
		e.coord.Close()
		return nil
	}
	if e.live != nil {
		e.liveMu.Lock()
		if e.liveView != nil {
			e.liveView.Release()
			e.liveView = nil
			e.liveEng = nil
		}
		e.liveMu.Unlock()
		return e.live.Close()
	}
	if c, ok := e.eng.Source().(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// registry holds the named tables a server can answer queries over. One
// Engine per table (per generation, for live tables) is shared by all
// requests; the registry itself allows concurrent lookups during admin
// loads and unloads.
type registry struct {
	mu           sync.RWMutex
	entries      map[string]*tableEntry
	incarnations map[string]uint64
	log          *slog.Logger
}

func newRegistry(log *slog.Logger) *registry {
	return &registry{
		entries:      make(map[string]*tableEntry),
		incarnations: make(map[string]uint64),
		log:          log,
	}
}

// add installs an entry, assigning its incarnation. Re-registering a
// live name is an error: swapping a table out from under in-flight
// queries needs an unload (which waits for them to drain) first.
func (r *registry) add(e *tableEntry) error {
	if e.name == "" {
		return fmt.Errorf("server: table name must not be empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.name]; dup {
		return fmt.Errorf("server: table %q already registered", e.name)
	}
	r.incarnations[e.name]++
	e.incarnation = r.incarnations[e.name]
	r.entries[e.name] = e
	r.log.Info("table registered",
		"table", e.name, "source", e.source,
		"incarnation", e.incarnation, "live", e.live != nil)
	return nil
}

// register installs a static storage source under a name.
func (r *registry) register(name, source string, src colstore.Reader, queryTimeout time.Duration, auditFraction *float64) error {
	return r.add(&tableEntry{
		name:          name,
		source:        source,
		eng:           engine.New(src),
		metrics:       newTableMetrics(),
		loadedAt:      time.Now(),
		queryTimeout:  queryTimeout,
		auditFraction: auditFraction,
	})
}

// registerLive installs an open writable table under a name.
func (r *registry) registerLive(name, source string, wt *ingest.WritableTable, queryTimeout time.Duration, auditFraction *float64) error {
	return r.add(&tableEntry{
		name:          name,
		source:        source,
		live:          wt,
		metrics:       newTableMetrics(),
		loadedAt:      time.Now(),
		queryTimeout:  queryTimeout,
		auditFraction: auditFraction,
	})
}

// load reads the spec's file through the selected storage backend and
// registers the resulting source.
func (r *registry) load(spec TableSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("server: table spec needs a name")
	}
	if len(spec.Shards) > 0 {
		if spec.Path != "" || spec.Format != "" || spec.Backend != "" {
			return fmt.Errorf("server: table %q: shards is exclusive with path/format/backend", spec.Name)
		}
		if spec.AuditFraction != nil {
			return fmt.Errorf("server: table %q: %w", spec.Name, errCoordinatedAudit)
		}
		timeout := time.Duration(spec.QueryTimeoutMS) * time.Millisecond
		return r.registerCoordinated(spec.Name, cluster.NewClient(spec.Shards), timeout)
	}
	if spec.Path == "" {
		return fmt.Errorf("server: table %q needs a path", spec.Name)
	}
	backend := spec.Backend
	if backend == "" {
		backend = "inmem"
	}
	timeout := time.Duration(spec.QueryTimeoutMS) * time.Millisecond
	if backend == "ingest" {
		if spec.BlockDelayUS > 0 {
			return fmt.Errorf("server: table %q: block_delay_us is for static backends, not ingest", spec.Name)
		}
		wt, err := ingest.Open(spec.Path, ingest.Schema{
			Columns:   spec.Columns,
			Measures:  spec.Measures,
			BlockSize: spec.BlockSize,
		}, ingest.Options{SealRows: spec.SealRows, Logger: r.log})
		if err != nil {
			return fmt.Errorf("server: opening ingest table %q at %s: %w", spec.Name, spec.Path, err)
		}
		if err := r.registerLive(spec.Name, spec.Path, wt, timeout, spec.AuditFraction); err != nil {
			wt.Close()
			return err
		}
		return nil
	}
	format := spec.Format
	if format == "" {
		switch strings.ToLower(filepath.Ext(spec.Path)) {
		case ".fms", ".snap", ".snapshot":
			format = "snapshot"
		default:
			format = "csv"
		}
	}
	if backend != "inmem" && backend != "mmap" {
		return fmt.Errorf("server: table %q: unknown backend %q (want inmem, mmap, or ingest)", spec.Name, backend)
	}
	var src colstore.Reader
	var err error
	switch format {
	case "snapshot":
		if backend == "mmap" {
			src, err = colstore.OpenMmapFile(spec.Path)
		} else {
			src, err = colstore.ReadSnapshotFile(spec.Path)
		}
	case "csv":
		if backend == "mmap" {
			return fmt.Errorf("server: table %q: backend mmap requires a snapshot, not csv (write one with datagen -snapshot)", spec.Name)
		}
		var f *os.File
		if f, err = os.Open(spec.Path); err != nil {
			break
		}
		seed := int64(1)
		if spec.ShuffleSeed != nil {
			seed = *spec.ShuffleSeed
		}
		opts := colstore.CSVOptions{
			BlockSize:   spec.BlockSize,
			Measures:    spec.Measures,
			DropInvalid: true,
		}
		if seed >= 0 {
			opts.ShuffleSeed = &seed
		}
		src, err = colstore.ReadCSV(f, opts)
		f.Close()
	default:
		return fmt.Errorf("server: table %q: unknown format %q (want csv or snapshot)", spec.Name, format)
	}
	if err != nil {
		return fmt.Errorf("server: loading table %q from %s: %w", spec.Name, spec.Path, err)
	}
	if spec.BlockDelayUS > 0 {
		src = colstore.NewThrottledReader(src, time.Duration(spec.BlockDelayUS)*time.Microsecond)
	}
	if err := r.register(spec.Name, spec.Path, src, timeout, spec.AuditFraction); err != nil {
		// Don't leak the file mapping when registration fails (e.g. a
		// duplicate name on an admin reload).
		if c, ok := src.(io.Closer); ok {
			_ = c.Close()
		}
		return err
	}
	return nil
}

// unload removes a table, refusing while requests are in flight. The
// check happens under the write lock, which excludes concurrent
// acquires, so a successful unload closes storage no request is using.
func (r *registry) unload(name string) error {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return errTableNotFound
	}
	if e.inflight.Load() != 0 {
		r.mu.Unlock()
		return fmt.Errorf("%w: %d requests in flight", errTableBusy, e.inflight.Load())
	}
	delete(r.entries, name)
	r.mu.Unlock()
	r.log.Info("table unloaded", "table", name)
	return e.close()
}

// count returns the number of registered tables.
func (r *registry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// acquire returns the entry for a table name with its inflight counter
// raised; callers must pair it with entry.release. Taking the counter
// under the read lock excludes a racing unload.
func (r *registry) acquire(name string) (*tableEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if ok {
		e.inflight.Add(1)
	}
	return e, ok
}

// acquireAll copies the entry list with every inflight counter raised
// (excluding concurrent unloads while the caller iterates); the caller
// must release each entry.
func (r *registry) acquireAll() []*tableEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*tableEntry, 0, len(r.entries))
	for _, e := range r.entries {
		e.inflight.Add(1)
		out = append(out, e)
	}
	return out
}

// info renders one entry's TableInfo. Coordinated entries hold no local
// data: their info is the shard topology (the source string), with row
// and column detail living on the shard daemons' own /v1/tables.
func (e *tableEntry) info() (TableInfo, error) {
	if e.coord != nil {
		return TableInfo{Name: e.name, Source: e.source, LoadedAt: e.loadedAt}, nil
	}
	eng, _, done, err := e.engineNow()
	if err != nil {
		return TableInfo{}, err
	}
	defer done()
	src := eng.Source()
	info := TableInfo{
		Name:      e.name,
		Rows:      src.NumRows(),
		Blocks:    src.NumBlocks(),
		BlockSize: src.BlockSize(),
		Source:    e.source,
		Storage:   src.Storage(),
		LoadedAt:  e.loadedAt,
	}
	if e.live != nil {
		st := e.live.Stats()
		info.Ingest = &st
	}
	for _, cn := range src.Columns() {
		col, err := src.ColumnByName(cn)
		if err != nil {
			continue
		}
		info.Columns = append(info.Columns, ColumnInfo{Name: cn, Cardinality: col.Cardinality()})
	}
	return info, nil
}

// list returns info for all registered tables, name-sorted.
func (r *registry) list() []TableInfo {
	entries := r.acquireAll()
	out := make([]TableInfo, 0, len(entries))
	for _, e := range entries {
		info, err := e.info()
		e.release()
		if err != nil {
			continue // table closed mid-listing
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// health reports per-table readiness, name-sorted: a table is ready when
// it can bind an engine over its current data (for live tables, when a
// view of the current generation can be taken).
func (r *registry) health() []TableHealth {
	entries := r.acquireAll()
	out := make([]TableHealth, 0, len(entries))
	for _, e := range entries {
		th := TableHealth{Name: e.name}
		if e.coord != nil {
			// Coordinated readiness is the shard client's view: every
			// shard's most recent call succeeded. No probe traffic — a
			// health check that fans out to K daemons would turn the
			// liveness endpoint into a cluster load generator.
			th.Ready = true
			for _, sc := range e.coord.Stats() {
				if !sc.Healthy {
					th.Ready = false
					th.Error = "shard " + sc.Name + ": " + sc.LastError
					break
				}
			}
		} else if eng, _, done, err := e.engineNow(); err != nil {
			th.Error = err.Error()
		} else {
			th.Ready = true
			th.Rows = eng.Source().NumRows()
			done()
		}
		e.release()
		out = append(out, th)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// metricsSnapshot returns per-table metrics, name-keyed.
func (r *registry) metricsSnapshot() map[string]TableMetrics {
	entries := r.acquireAll()
	out := make(map[string]TableMetrics, len(entries))
	for _, e := range entries {
		m := e.metrics.snapshot()
		if e.coord != nil {
			m.Shards = e.coord.Stats()
		} else if eng, _, done, err := e.engineNow(); err == nil {
			m.Storage = eng.Source().Storage()
			done()
		}
		if e.live != nil {
			st := e.live.Stats()
			m.Ingest = &st
		}
		out[e.name] = m
		e.release()
	}
	return out
}
