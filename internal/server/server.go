// Package server implements fastmatchd's query-serving subsystem: a
// multi-table registry (one shared, concurrent-safe Engine per dataset), a
// JSON-over-HTTP query API, an LRU plan cache reusing Engine.Prepare
// output across requests, an LRU result cache exploiting seeded-run
// determinism, a semaphore-based admission controller bounding concurrent
// engine runs, and per-table serving metrics.
//
// Endpoints:
//
//	POST /v1/query               answer a top-k histogram matching query
//	POST /v1/internal/partial    shard-internal scatter-gather endpoint
//	POST /v1/tables/{name}/rows  append rows to an ingest-backed table
//	GET  /v1/tables              list registered tables and their schemas
//	GET  /v1/healthz             liveness probe
//	GET  /v1/stats               per-table metrics, cache and admission counters
//	POST /v1/admin/load          load another table from disk (if enabled)
//	POST /v1/admin/unload        drop a table from the registry (if enabled)
//
// The package is transport-thin by design: everything interesting —
// planning, sampling, guarantees — lives in internal/engine (and, for
// live tables, internal/ingest), and the server only adds naming,
// reuse, and back-pressure.
package server

import (
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"fastmatch/internal/cluster"
	"fastmatch/internal/colstore"
	"fastmatch/internal/engine"
	"fastmatch/internal/obs/logx"
)

// Config parameterizes a Server. The zero value is usable: every field
// has a sensible default applied by New.
type Config struct {
	// MaxConcurrent bounds simultaneous engine runs; ≤ 0 selects
	// 2×GOMAXPROCS. Requests beyond the bound wait up to MaxWait and are
	// then rejected with 503 (cache hits bypass admission).
	MaxConcurrent int
	// MaxWait is how long an admitted-over-capacity request may wait for
	// a run slot; < 0 means reject immediately, 0 selects 2s.
	MaxWait time.Duration
	// PlanCacheSize bounds the plan cache (entries are resolved
	// query-shape plans, keyed per table); 0 selects 256, < 0 disables.
	PlanCacheSize int
	// ResultCacheSize bounds the result cache (entries are encoded result
	// payloads with their runs' quality reports, keyed by the full
	// request fingerprint); 0 selects 1024, < 0 disables.
	ResultCacheSize int
	// EnableAdmin exposes POST /v1/admin/load, letting clients load
	// arbitrary file paths readable by the process — leave off unless the
	// daemon is trusted-network only.
	EnableAdmin bool
	// QueryTimeout is the default per-request query timeout: a run past
	// it stops and the response carries the best-effort partial answer
	// (Partial set). 0 means no timeout; TableSpec.QueryTimeoutMS
	// overrides it per table.
	QueryTimeout time.Duration
	// Logger receives the server's structured logs (per-request lines,
	// table load/unload events, ingest WAL/compaction events, slow-query
	// reports). Nil discards everything — embedding programs and tests
	// stay quiet by default.
	Logger *slog.Logger
	// SlowQuery, when > 0, is the slow-query threshold: any query
	// request at or past it is logged at Warn level with its full span
	// tree attached.
	SlowQuery time.Duration
	// QueryLogSize bounds each view of the in-memory query log served at
	// GET /v1/debug/queries: the newest records and the slowest of the
	// last 15 minutes. 0 selects 32, < 0 disables the log (the list
	// endpoint then answers with an empty list, and every lookup 404s).
	QueryLogSize int
	// AuditFraction is the fraction (0..1) of completed sampling-executor
	// answers to shadow-audit: re-execute the plan with the exact Scan
	// executor off the request path and compare (precision@k, rank
	// displacement, guarantee violations — see engine.AuditRun). 0 (the
	// default) disables auditing; values ≥ 1 audit every eligible answer.
	// TableSpec.AuditFraction overrides it per table. Audits are full
	// scans: they take regular admission slots, so they compete with —
	// but never exceed — the serving concurrency bound.
	AuditFraction float64
}

// Server serves FastMatch queries over registered tables. Create with
// New, add tables with LoadTable/RegisterTable, and expose Handler on an
// http.Server. All methods are safe for concurrent use.
type Server struct {
	cfg     Config
	reg     *registry
	plans   *lruCache[string, *engine.Plan]
	results *lruCache[string, cachedResult]
	adm     *admission
	mux     *http.ServeMux
	started time.Time
	log     *slog.Logger
	queries *queryLog
	// auditWG tracks in-flight shadow audits; tests wait on it to observe
	// audit outcomes deterministically.
	auditWG sync.WaitGroup

	// testHookRunning, when set, is invoked while a query request holds
	// its admission slot — lets tests park a request deterministically.
	testHookRunning func()
}

// New creates a Server from the config (zero value OK).
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.MaxWait < 0:
		cfg.MaxWait = 0
	case cfg.MaxWait == 0:
		cfg.MaxWait = 2 * time.Second
	}
	if cfg.PlanCacheSize == 0 {
		cfg.PlanCacheSize = 256
	}
	if cfg.ResultCacheSize == 0 {
		cfg.ResultCacheSize = 1024
	}
	if cfg.QueryLogSize == 0 {
		cfg.QueryLogSize = 32
	}
	log := logx.OrDiscard(cfg.Logger)
	s := &Server{
		cfg:     cfg,
		reg:     newRegistry(log),
		plans:   newLRUCache[string, *engine.Plan](cfg.PlanCacheSize),
		results: newLRUCache[string, cachedResult](cfg.ResultCacheSize),
		adm:     newAdmission(cfg.MaxConcurrent, cfg.MaxWait),
		mux:     http.NewServeMux(),
		started: time.Now(),
		log:     log,
		queries: newQueryLog(cfg.QueryLogSize),
	}
	s.routes()
	return s
}

// LoadTable loads a dataset from disk (CSV or snapshot, per the spec) and
// registers it.
func (s *Server) LoadTable(spec TableSpec) error { return s.reg.load(spec) }

// RegisterTable registers an already-open storage source — the embedding
// path for programs that construct tables with a Builder or open mmap
// snapshots themselves. The table inherits Config.QueryTimeout.
func (s *Server) RegisterTable(name string, src colstore.Reader) error {
	return s.reg.register(name, "(in-memory)", src, 0, nil)
}

// RegisterCoordinatedTable registers a coordinated (scatter-gather)
// table: the server holds no local data and answers queries by fanning
// out across the named shard daemons and folding their partials with
// the engine's merge algebra. Every query is answered exactly, whatever
// executor it requests — byte-identical to a single-node ParallelScan
// over the concatenated data (see internal/cluster). Shard order must
// match the row-range partition (datagen -shards writes shards in that
// order). Each shard daemon must serve the same table name.
func (s *Server) RegisterCoordinatedTable(name string, refs []cluster.ShardRef) error {
	return s.reg.registerCoordinated(name, cluster.NewClient(refs), 0)
}

// timeoutFor resolves a table's effective query timeout: the per-table
// setting when present (negative = explicitly none), the server default
// otherwise.
func (s *Server) timeoutFor(e *tableEntry) time.Duration {
	switch {
	case e.queryTimeout > 0:
		return e.queryTimeout
	case e.queryTimeout < 0:
		return 0
	default:
		return s.cfg.QueryTimeout
	}
}

// Tables lists the registered tables.
func (s *Server) Tables() []TableInfo { return s.reg.list() }

// Handler returns the HTTP handler serving the /v1 API.
func (s *Server) Handler() http.Handler { return s.mux }
