// Command fastmatchd is the FastMatch query-serving daemon: it loads one
// or more datasets into a table registry and answers top-k histogram
// matching queries over JSON/HTTP, with plan and result caching and
// admission control (see internal/server).
//
// Usage:
//
//	go run ./cmd/datagen -dataset flights -rows 500000 -out "" -snapshot flights.fms
//	go run ./cmd/fastmatchd -listen :8080 -table flights=flights.fms
//
//	# zero-copy mmap backend: near-instant cold start, OS-managed residency
//	go run ./cmd/fastmatchd -listen :8080 -table "flights=flights.fms?backend=mmap"
//
//	# live ingestion: a WAL-backed appendable table (dir created if absent,
//	# WAL-replayed on boot); append via POST /v1/tables/live/rows
//	go run ./cmd/fastmatchd -listen :8080 \
//	    -table "live=./livedir?backend=ingest&columns=Origin,DepartureHour" \
//	    -measures live:Delay
//
//	# cluster coordinator: no local data — scatter-gather queries across
//	# shard daemons (write shard snapshots with datagen -shards N)
//	go run ./cmd/fastmatchd -listen :8081 -table flights=flights-shard0.fms &
//	go run ./cmd/fastmatchd -listen :8082 -table flights=flights-shard1.fms &
//	go run ./cmd/fastmatchd -listen :8080 -coordinator flights \
//	    -shard s0=http://127.0.0.1:8081 -shard s1=http://127.0.0.1:8082
//
//	curl -s localhost:8080/v1/tables
//	curl -s -X POST localhost:8080/v1/query -d '{
//	    "table": "flights",
//	    "query": {"z": "Origin", "x": ["DepartureHour"]},
//	    "target": {"uniform": true},
//	    "options": {"k": 5, "executor": "scan"}
//	}'
//
// -table name=path is repeatable; .fms/.snap/.snapshot paths load as
// binary snapshots (fast cold start, layout preserved), everything else
// as CSV. A path may carry query options: ?backend=mmap (snapshots only)
// serves the table zero-copy from a file mapping; ?backend=ingest treats
// the path as a live table directory and accepts columns= (schema, for
// fresh directories), seal=N (segment seal granularity in rows), and
// block=N (block size). Every table accepts timeout=DUR (per-request
// query timeout for this table, e.g. timeout=2s; overrides
// -query-timeout, timeout=-1ms disables) and audit=F (fraction of this
// table's completed sampling-executor answers to shadow-audit against an
// exact re-execution; overrides -audit-fraction, audit=-1 disables), and
// static tables accept blockdelay=DUR (artificial per-block read latency
// — a storage-latency simulator for demonstrating progressive delivery
// and cancellation). CSV and ingest measure columns are named with
// -measures table:col1,col2.
//
// -coordinator NAME serves NAME as a coordinated table: every query,
// whatever its executor, runs as an exact scan fanned out across the
// -shard daemons (repeatable name=url, order = row-range order, matching
// datagen -shards output order), and their partials fold into an answer
// byte-identical to a single-node parallelscan over the concatenated
// data. A dead shard degrades the answer honestly — 200 with
// "partial": true and the missing shard named — never a wrong total.
//
// Query log: every request leaves one record — executor, outcome, span
// tree, the sampling run's convergence report and, when shadow-audited
// (-audit-fraction), the audit verdict — found by its X-Query-ID at
// GET /v1/debug/queries/{id}. GET /v1/debug/queries lists the newest
// records (?order=slowest: the slowest of the last 15 minutes); -query-log
// bounds each view. "quality": true on a query returns the convergence
// report next to the result. Quality reports and audits feed the
// fastmatch_quality_*/fastmatch_audit_* Prometheus families.
//
// Progressive queries: POST /v1/query/stream answers with NDJSON — one
// progress frame per HistSim round, then a terminal result frame
// byte-identical to the blocking endpoint's answer. Timed-out runs
// answer 200 with the best-effort partial result (flagged "partial");
// disconnected clients cancel the underlying scan and are counted in
// /v1/stats.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fastmatch/internal/cluster"
	"fastmatch/internal/obs/logx"
	"fastmatch/internal/server"
)

func main() {
	listen := flag.String("listen", ":8080", "HTTP listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "concurrent engine runs bound (0 = 2×GOMAXPROCS)")
	maxWait := flag.Duration("max-wait", 2*time.Second, "how long over-capacity requests wait before 503 (negative = reject immediately)")
	planCache := flag.Int("plan-cache", 256, "plan cache entries (negative disables)")
	resultCache := flag.Int("result-cache", 1024, "result cache entries (negative disables)")
	admin := flag.Bool("admin", false, "expose POST /v1/admin/load and /debug/pprof (trusted networks only)")
	shuffleSeed := flag.Int64("shuffle-seed", 1, "row shuffle seed for CSV tables (negative = keep file order; snapshots always keep their layout)")
	queryTimeout := flag.Duration("query-timeout", 0, "default per-request query timeout; past it the response carries the best-effort partial result (0 = none, per-table timeout= overrides)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	slowQueryMS := flag.Int64("slow-query-ms", 0, "slow-query threshold in milliseconds; requests at or past it log their full span tree at warn level (0 = off)")
	queryLog := flag.Int("query-log", 32, "query records kept in each view of GET /v1/debug/queries: the newest, and the slowest of the last 15 minutes (negative disables)")
	auditFraction := flag.Float64("audit-fraction", 0, "fraction of completed sampling-executor answers to shadow-audit against an exact re-execution (0 = off, 1 = every answer; per-table audit= overrides)")

	var tables []server.TableSpec
	flag.Func("table", "dataset to serve, as name=path, name=path?backend=mmap, or name=dir?backend=ingest&columns=a,b (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		spec := server.TableSpec{Name: name, Path: path}
		if base, rawOpts, hasOpts := strings.Cut(path, "?"); hasOpts {
			opts, err := url.ParseQuery(rawOpts)
			if err != nil {
				return fmt.Errorf("table %q: parsing options %q: %v", name, rawOpts, err)
			}
			for k := range opts {
				switch k {
				case "backend", "columns", "seal", "block", "timeout", "blockdelay", "audit":
				default:
					return fmt.Errorf("table %q: unknown option %q (want backend, columns, seal, block, timeout, blockdelay, or audit)", name, k)
				}
			}
			spec.Path = base
			spec.Backend = opts.Get("backend")
			if cols := opts.Get("columns"); cols != "" {
				if spec.Backend != "ingest" {
					return fmt.Errorf("table %q: columns= is only for backend=ingest", name)
				}
				spec.Columns = strings.Split(cols, ",")
			}
			for _, numOpt := range []struct {
				key string
				dst *int
			}{{"seal", &spec.SealRows}, {"block", &spec.BlockSize}} {
				if s := opts.Get(numOpt.key); s != "" {
					n, err := strconv.Atoi(s)
					if err != nil || n <= 0 {
						return fmt.Errorf("table %q: bad %s=%q", name, numOpt.key, s)
					}
					*numOpt.dst = n
				}
			}
			if s := opts.Get("timeout"); s != "" {
				d, err := time.ParseDuration(s)
				if err != nil {
					return fmt.Errorf("table %q: bad timeout=%q: %v", name, s, err)
				}
				if d < 0 {
					spec.QueryTimeoutMS = -1 // explicitly no timeout
				} else {
					spec.QueryTimeoutMS = d.Milliseconds()
				}
			}
			if s := opts.Get("blockdelay"); s != "" {
				d, err := time.ParseDuration(s)
				if err != nil || d < 0 {
					return fmt.Errorf("table %q: bad blockdelay=%q", name, s)
				}
				spec.BlockDelayUS = d.Microseconds()
			}
			if s := opts.Get("audit"); s != "" {
				f, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return fmt.Errorf("table %q: bad audit=%q: %v", name, s, err)
				}
				spec.AuditFraction = &f
			}
		}
		tables = append(tables, spec)
		return nil
	})
	coordinator := flag.String("coordinator", "", "serve this table as a cluster coordinator scatter-gathering across the -shard daemons (no local data)")
	var shardRefs []cluster.ShardRef
	flag.Func("shard", "shard daemon for -coordinator, as name=url (repeatable; order is the row-range order)", func(v string) error {
		name, shardURL, ok := strings.Cut(v, "=")
		if !ok || name == "" || shardURL == "" {
			return fmt.Errorf("want name=url, got %q", v)
		}
		shardRefs = append(shardRefs, cluster.ShardRef{Name: name, URL: strings.TrimRight(shardURL, "/")})
		return nil
	})
	measures := map[string][]string{}
	flag.Func("measures", "CSV measure columns, as table:col1,col2 (repeatable)", func(v string) error {
		name, cols, ok := strings.Cut(v, ":")
		if !ok || name == "" || cols == "" {
			return fmt.Errorf("want table:col1,col2, got %q", v)
		}
		measures[name] = strings.Split(cols, ",")
		return nil
	})
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "fastmatchd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger, err := logx.New(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fastmatchd: %v\n", err)
		os.Exit(2)
	}

	if len(tables) == 0 && *coordinator == "" {
		fmt.Fprintln(os.Stderr, "fastmatchd: no tables; pass at least one -table name=path (or -coordinator with -shard)")
		flag.Usage()
		os.Exit(2)
	}
	if *coordinator != "" && len(shardRefs) == 0 {
		fmt.Fprintln(os.Stderr, "fastmatchd: -coordinator needs at least one -shard name=url")
		flag.Usage()
		os.Exit(2)
	}

	srv := server.New(server.Config{
		MaxConcurrent:   *maxConcurrent,
		MaxWait:         *maxWait,
		PlanCacheSize:   *planCache,
		ResultCacheSize: *resultCache,
		EnableAdmin:     *admin,
		QueryTimeout:    *queryTimeout,
		Logger:          logger,
		SlowQuery:       time.Duration(*slowQueryMS) * time.Millisecond,
		QueryLogSize:    *queryLog,
		AuditFraction:   *auditFraction,
	})
	for _, spec := range tables {
		spec.Measures = measures[spec.Name]
		spec.ShuffleSeed = shuffleSeed
		began := time.Now()
		if err := srv.LoadTable(spec); err != nil {
			logger.Error("loading table failed", "table", spec.Name, "error", err)
			os.Exit(1)
		}
		for _, info := range srv.Tables() {
			if info.Name == spec.Name {
				logger.Info("table loaded",
					"table", info.Name, "rows", info.Rows, "blocks", info.Blocks,
					"backend", info.Storage.Backend, "path", spec.Path,
					"elapsed", time.Since(began).Round(time.Millisecond).String())
			}
		}
	}

	if *coordinator != "" {
		if err := srv.RegisterCoordinatedTable(*coordinator, shardRefs); err != nil {
			logger.Error("registering coordinator failed", "table", *coordinator, "error", err)
			os.Exit(1)
		}
		names := make([]string, 0, len(shardRefs))
		for _, ref := range shardRefs {
			names = append(names, ref.Name+"="+ref.URL)
		}
		logger.Info("coordinator registered", "table", *coordinator, "shards", strings.Join(names, " "))
	}

	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "tables", len(tables), "listen", *listen)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Error("server failed", "error", err)
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("shutdown", "error", err)
		}
	}
}
