package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"fastmatch/internal/cluster"
	"fastmatch/internal/engine"
	"fastmatch/internal/obs/trace"
)

// statusClientClosedRequest is nginx's nonstandard 499 "client closed
// request": the client disconnected (or stopped waiting) before the
// server could answer. The response body never reaches anyone; the
// status exists for access logs and metrics.
const statusClientClosedRequest = 499

// maxRequestBody bounds query/admin bodies; matching requests are small.
const maxRequestBody = 1 << 20

// routes installs the /v1 API on the server's mux.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/tables", s.handleTables)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/debug/traces", s.handleDebugTraces)
	s.mux.HandleFunc("GET /v1/debug/quality", s.handleDebugQuality)
	s.mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		s.serveQuery(w, r, blockingSink{w})
	})
	s.mux.HandleFunc("POST /v1/query/stream", func(w http.ResponseWriter, r *http.Request) {
		s.serveQuery(w, r, &streamSink{w: w})
	})
	s.mux.HandleFunc("POST /v1/explain", s.handleExplain)
	s.mux.HandleFunc("POST /v1/internal/partial", s.handleInternalPartial)
	s.mux.HandleFunc("POST /v1/tables/{name}/rows", s.handleAppend)
	if s.cfg.EnableAdmin {
		s.mux.HandleFunc("POST /v1/admin/load", s.handleAdminLoad)
		s.mux.HandleFunc("POST /v1/admin/unload", s.handleAdminUnload)
		// pprof rides behind the same trust boundary as admin loads: CPU
		// profiles and heap dumps are not for untrusted networks.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError writes an ErrorResponse.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// HealthResponse is the body of GET /v1/healthz (also aliased at
// GET /healthz). Status is "ok" when every registered table can serve
// queries, "degraded" otherwise.
type HealthResponse struct {
	Status   string `json:"status"`
	Tables   int    `json:"tables"`
	UptimeNS int64  `json:"uptime_ns"`
	// Version/Revision/GoVersion identify the running build
	// (debug.ReadBuildInfo; Revision is the VCS commit when stamped).
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	// TableStatus reports per-table readiness: whether each table can
	// currently bind an engine over its data (for live tables, whether a
	// view of the current generation can be taken).
	TableStatus []TableHealth `json:"table_status,omitempty"`
}

// TableHealth is one table's readiness in a HealthResponse.
type TableHealth struct {
	Name  string `json:"name"`
	Ready bool   `json:"ready"`
	Rows  int    `json:"rows,omitempty"`
	Error string `json:"error,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	bi := buildInfo()
	resp := HealthResponse{
		Status:      "ok",
		UptimeNS:    int64(time.Since(s.started)),
		Version:     bi.Version,
		Revision:    bi.Revision,
		GoVersion:   bi.GoVersion,
		TableStatus: s.reg.health(),
	}
	resp.Tables = len(resp.TableStatus)
	for _, th := range resp.TableStatus {
		if !th.Ready {
			resp.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// TablesResponse is the body of GET /v1/tables.
type TablesResponse struct {
	Tables []TableInfo `json:"tables"`
}

func (s *Server) handleTables(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, TablesResponse{Tables: s.reg.list()})
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeNS    int64                   `json:"uptime_ns"`
	Tables      map[string]TableMetrics `json:"tables"`
	PlanCache   CacheStats              `json:"plan_cache"`
	ResultCache CacheStats              `json:"result_cache"`
	Admission   AdmissionStats          `json:"admission"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeNS:    int64(time.Since(s.started)),
		Tables:      s.reg.metricsSnapshot(),
		PlanCache:   s.plans.Stats(),
		ResultCache: s.results.Stats(),
		Admission:   s.adm.stats(),
	})
}

func (s *Server) handleAdminLoad(w http.ResponseWriter, r *http.Request) {
	var spec TableSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding table spec: %v", err)
		return
	}
	if err := s.reg.load(spec); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, TablesResponse{Tables: s.reg.list()})
}

// wireResponse is the body of a successful POST /v1/query. The result
// payload is kept as raw JSON (the ResultPayload bytes) so cached and
// live paths emit byte-identical result bytes.
type wireResponse struct {
	Table string `json:"table"`
	// Cached reports a result-cache hit.
	Cached bool `json:"cached"`
	// DurationNS is this request's server-side wall time (for a cached
	// response, the lookup time — not the original run's).
	DurationNS int64 `json:"duration_ns"`
	// Trace is the request's span tree, present only when the request set
	// "trace": true. It precedes Result so tooling that slices the
	// response at `"result":` (the smoke script does) keeps working.
	Trace *trace.Snapshot `json:"trace,omitempty"`
	// Quality is the run's answer-quality report, present only when the
	// request set "quality": true on a sampling executor. Like Trace it is
	// a sibling of Result — never inside it — so the result bytes stay
	// byte-identical whether or not quality was requested.
	Quality *engine.QualityReport `json:"quality,omitempty"`
	// Shards reports per-shard status for coordinated tables (one entry
	// per shard daemon, in row-range order); MissingShards names
	// shards that did not contribute, and Degraded marks an answer made
	// Partial by shard loss rather than a timeout or budget. All three
	// precede Result for the same `"result":`-slicing reason as Trace.
	Shards        []cluster.ShardStatus `json:"shards,omitempty"`
	MissingShards []string              `json:"missing_shards,omitempty"`
	Degraded      bool                  `json:"degraded,omitempty"`
	// Result is the deterministic result payload (ResultPayload).
	Result json.RawMessage `json:"result"`
}

// sink is how a query's answer leaves the server — one of the two seams
// of the query pipeline (the other is the runner). Until begin, every
// failure is a plain HTTP status on either sink; begin commits the
// response, after which the NDJSON sink has sent 200 and can only report
// failures as error frames.
type sink interface {
	// begin commits the response and returns where the run's interim
	// progress goes (nil: nowhere).
	begin(queryID string) func(engine.Progress)
	// carried maps the status a failure deserves to the one the
	// response can still carry.
	carried(status int) int
	fail(status int, msg string)
	answer(resp wireResponse)
}

// blockingSink answers with one JSON body and real HTTP statuses.
type blockingSink struct{ w http.ResponseWriter }

func (b blockingSink) begin(string) func(engine.Progress) { return nil }
func (b blockingSink) carried(status int) int             { return status }
func (b blockingSink) fail(status int, msg string) {
	writeJSON(b.w, status, ErrorResponse{Error: msg})
}
func (b blockingSink) answer(resp wireResponse) { writeJSON(b.w, http.StatusOK, resp) }

// runner is the pipeline's other seam: the one stage a local and a
// coordinated table do differently. run executes the prepared query
// (a local run reports no shards); reference re-executes it exactly for
// a shadow audit of approx. A coordinated runner has no reference: its
// answers are exact, so prepareQuery never selects them for an audit.
type runner struct {
	run       func(ctx context.Context, opts engine.Options) (*cluster.Result, error)
	reference func(ctx context.Context, approx *engine.Result) (*engine.Audit, error)
}

// preparedQuery is one query request's state as it moves down the
// pipeline. The table entry and (for live tables) its data view stay
// pinned until the last hold is dropped — including across a canceled
// run, so a mid-flight scan can never lose its storage.
type preparedQuery struct {
	srv   *Server
	out   sink
	req   QueryRequest
	entry *tableEntry
	// localQuery is the request's binding to a local table's data; a
	// coordinated request sets only its planKey (shards holds the rest).
	localQuery
	opts      engine.Options
	target    engine.Target
	resultKey string
	began     time.Time
	// id is the generated query ID (echoed as X-Query-ID and stamped on
	// the trace); tr is the request's span tree, recorded for every
	// request — it feeds the slow-query log and the slowest-traces ring
	// whether or not the client asked for the trace back.
	id string
	tr *trace.Trace
	// audit marks the request as sampled for a shadow audit (decided at
	// prepare time so the run collects quality telemetry); holds counts
	// the users of the pinned entry and view — the handler plus any
	// in-flight audit — so both outlive the response when an audit is
	// still re-executing the plan.
	audit bool
	holds atomic.Int32
	// auto is why the executor was chosen, when the request asked for auto.
	auto *engine.AutoDecision
	// cacheable gates the result cache, read and write: always for a
	// local table; for a coordinated one only when every shard's meta
	// resolved at prepare time, because the cache key's generations and
	// the row total the options derive from are otherwise incomplete.
	cacheable bool
	// shards is a coordinated request's bound shard set; run is set once
	// the request holds its admission slot.
	shards []cluster.Shard
	run    runner
}

// retain adds a hold on the prepared query's pinned resources; done
// drops one and releases the view and the entry when the last holder is
// gone. The handler holds one from bindQuery; the audit goroutine
// retains another.
func (pq *preparedQuery) retain() { pq.holds.Add(1) }
func (pq *preparedQuery) done() {
	if pq.holds.Add(-1) == 0 {
		if pq.release != nil {
			pq.release()
		}
		pq.entry.release()
	}
}

// end closes a request that produced no answer: it is accounted
// (metrics, trace, request log) under oc and reported through the sink.
func (pq *preparedQuery) end(oc runOutcome, res *engine.Result, planHit bool, status int, msg string) {
	pq.srv.finishRequest(pq, oc, res, planHit, false, pq.out.carried(status), msg)
	pq.out.fail(status, msg)
}

// fail is end for a request-shaped failure.
func (pq *preparedQuery) fail(status int, format string, args ...any) {
	pq.end(outcomeFailed, nil, false, status, fmt.Sprintf(format, args...))
}

// bindQuery opens the pipeline: it mints the query ID and trace, decodes
// the request and pins the table entry. On failure it answers (and
// accounts) the error and returns nil; on success the caller owns one
// hold and must call done.
func (s *Server) bindQuery(w http.ResponseWriter, r *http.Request, out sink) *preparedQuery {
	id := newQueryID()
	pq := &preparedQuery{srv: s, out: out, id: id, tr: trace.New(id), began: time.Now()}
	w.Header().Set("X-Query-ID", id)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	dsp := pq.tr.Start("decode")
	err := dec.Decode(&pq.req)
	dsp.End()
	if err != nil {
		pq.fail(http.StatusBadRequest, "decoding query request: %v", err)
		return nil
	}
	entry, ok := s.reg.acquire(pq.req.Table)
	if !ok {
		pq.fail(http.StatusNotFound, "no table %q (see /v1/tables)", pq.req.Table)
		return nil
	}
	pq.entry = entry
	pq.holds.Store(1)
	return pq
}

// localQuery is a query spec compiled against one pinned generation of
// a local table: what /v1/query, /v1/explain and /v1/internal/partial
// all need before they can ask the plan cache for a plan.
type localQuery struct {
	eng     *engine.Engine
	q       engine.Query
	gen     uint64
	planKey string
	// release unpins the view the engine reads (nil while unbound).
	release func()
}

// bindLocal pins entry's current data and compiles spec against it. For
// live (ingest-backed) tables that binds the caller to the table's
// current generation: the view stays pinned until release, and the plan
// key carries (incarnation, generation) so plans and answers computed
// over older data are never reused. A failure comes with its HTTP status.
func bindLocal(entry *tableEntry, table string, spec QuerySpec) (localQuery, int, error) {
	eng, gen, release, err := entry.engineNow()
	if err != nil {
		return localQuery{}, http.StatusServiceUnavailable, fmt.Errorf("table %q unavailable: %v", table, err)
	}
	q, err := spec.toQuery(eng)
	var qfp string
	if err == nil {
		// Wire queries never carry closures, so the fingerprint always exists.
		qfp, err = q.Fingerprint()
	}
	if err != nil {
		release()
		return localQuery{}, http.StatusUnprocessableEntity, fmt.Errorf("invalid query: %v", err)
	}
	key := planKeyFor(table, entry.incarnation, strconv.FormatUint(gen, 10), qfp)
	return localQuery{eng: eng, q: q, gen: gen, planKey: key, release: release}, 0, nil
}

// planKeyFor spells the plan-cache key: table name, registry
// incarnation, data generation(s) and query fingerprint.
func planKeyFor(table string, incarnation uint64, gens, qfp string) string {
	return table + "\x00" + strconv.FormatUint(incarnation, 10) + "\x00" + gens + "\x00" + qfp
}

// cachedPlan returns the plan cached under key, preparing and publishing
// it on a miss. A miss plans under tr, so plan-building cost shows up in
// the span tree where it is paid.
func (s *Server) cachedPlan(key string, eng *engine.Engine, q engine.Query, tr *trace.Trace) (*engine.Plan, bool, error) {
	psp := tr.Start("plan_cache")
	plan, hit := s.plans.Get(key)
	psp.SetAttr("hit", hit)
	psp.End()
	if !hit {
		var err error
		if plan, err = eng.PrepareTraced(q, tr); err != nil {
			return nil, false, err
		}
		s.plans.Put(key, plan)
	}
	return plan, hit, nil
}

// prepareQuery binds pq to its data — a local engine or, under ctx, a
// coordinated table's shard set — and then runs the tail both share:
// default options scaled by the row count the query ranges over, the
// wire overrides, validation, the target, the cache keys and the audit
// decision. On failure it answers the error and returns false.
func (s *Server) prepareQuery(ctx context.Context, pq *preparedQuery) bool {
	var rows int
	if pq.entry.coord != nil {
		var ok bool
		if rows, ok = s.bindShards(ctx, pq); !ok {
			return false
		}
	} else {
		lq, status, err := bindLocal(pq.entry, pq.req.Table, pq.req.Query)
		if err != nil {
			pq.fail(status, "%v", err)
			return false
		}
		pq.localQuery, pq.cacheable = lq, true
		rows = lq.eng.Source().NumRows()
	}

	pq.opts = engine.DefaultOptions(rows)
	if err := pq.req.Options.apply(&pq.opts); err != nil {
		pq.fail(http.StatusUnprocessableEntity, "invalid options: %v", err)
		return false
	}
	if err := pq.opts.Validate(); err != nil {
		pq.fail(http.StatusUnprocessableEntity, "%v", err)
		return false
	}
	// The executor is resolved once, before the keys, so the cache key,
	// the audit decision, explain and the run span describe what runs:
	// coordinated ⇒ the exact scatter-gather scan; auto ⇒ the closed form.
	groups := 0
	if pq.entry.coord == nil && pq.opts.Executor == engine.Auto {
		groups, _ = pq.eng.Groups(pq.q) // an unplannable query fails at planning
	}
	pq.opts.Executor, pq.auto = engine.ResolveExecutor(pq.opts, rows, groups, pq.entry.coord != nil)
	pq.target = pq.req.Target.toTarget()
	pq.resultKey = pq.planKey + "\x00" + pq.target.Fingerprint() + "\x00" + pq.opts.Fingerprint()
	// Every request runs traced: the engine's span tree feeds the
	// slow-query log and the debug ring even when the client never asked
	// for it (Trace is excluded from the fingerprint, so this does not
	// fragment the result cache).
	pq.opts.Trace = pq.tr
	// Shadow-audit sampling is decided up front so the run also collects
	// quality telemetry for the debug ring. Quality, like Trace, is
	// excluded from the fingerprint: collection never changes the result
	// bytes, so audited and unaudited runs share cache entries.
	if isSamplingExecutor(pq.opts.Executor) {
		pq.audit = s.auditSelected(pq.entry)
		pq.opts.Quality = pq.req.Quality || pq.audit
	}
	return true
}

// runContext derives a request's context from the client connection and
// the table's query timeout. It is derived once, as soon as the table is
// known, so everything the request then waits on — a coordinated table's
// shard calls, the admission queue, the run — shares one deadline.
func (s *Server) runContext(r *http.Request, e *tableEntry) (context.Context, context.CancelFunc) {
	if to := s.timeoutFor(e); to > 0 {
		return context.WithTimeout(r.Context(), to)
	}
	return r.Context(), func() {}
}

// admit claims an admission slot for pq under ctx, answering the
// rejection when it fails. The caller must release on true.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, pq *preparedQuery) bool {
	asp := pq.tr.Start("admission")
	verdict := s.adm.acquire(ctx)
	asp.End()
	switch verdict {
	case admitOK:
		return true
	case admitCanceled:
		// The request context ended while queued; no slot was ever
		// claimed. Distinguish the server-imposed query timeout (the
		// client is still connected and deserves timeout semantics)
		// from a client that hung up.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			pq.end(outcomeTimedOut, nil, false, http.StatusGatewayTimeout, "query timed out while queued for admission")
		} else {
			pq.end(outcomeCanceled, nil, false, statusClientClosedRequest, "client closed request while queued for admission")
		}
	default: // admitTimeout
		w.Header().Set("Retry-After", "1")
		pq.fail(http.StatusServiceUnavailable, "server at capacity (%d runs in flight)", s.cfg.MaxConcurrent)
	}
	return false
}

// localRunner resolves pq's plan through the plan cache (equal query
// fingerprints share a resolved Plan) and runs it on the local engine.
func (s *Server) localRunner(pq *preparedQuery) (runner, bool, error) {
	plan, planHit, err := s.cachedPlan(pq.planKey, pq.eng, pq.q, pq.tr)
	if err != nil {
		return runner{}, false, err
	}
	return runner{
		run: func(ctx context.Context, opts engine.Options) (*cluster.Result, error) {
			res, err := plan.RunContext(ctx, pq.target, opts)
			if res == nil {
				return nil, err
			}
			return &cluster.Result{Result: res}, err
		},
		reference: func(ctx context.Context, approx *engine.Result) (*engine.Audit, error) {
			target, err := plan.ResolveTarget(pq.target, 0)
			if err != nil {
				return nil, fmt.Errorf("resolving audit target: %w", err)
			}
			return engine.AuditRun(ctx, plan, target, approx, pq.opts)
		},
	}, planHit, nil
}

// serveQuery is the one query pipeline behind POST /v1/query and
// POST /v1/query/stream: decode → bind table → run context → prepare →
// result-cache read → admission → run → encode → result-cache write →
// finishRequest → recordQuality → answer. The table kind picks the
// runner and the route picks the sink; nothing else differs.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, out sink) {
	pq := s.bindQuery(w, r, out)
	if pq == nil {
		return
	}
	defer pq.done()
	ctx, cancel := s.runContext(r, pq.entry)
	defer cancel()
	if !s.prepareQuery(ctx, pq) {
		return
	}

	// Result cache: seeded runs are deterministic (the async FastMatch
	// executor aside, where a cached answer is still one valid (ε, δ)
	// answer), so a fingerprint hit can skip the engine entirely. Traced
	// and quality-carrying requests skip the read — Trace and Quality are
	// excluded from the fingerprint, so a hit would hand back a payload
	// with no span tree or quality report behind it — but still publish
	// their payload below for plain requests to reuse. A hit keeps the
	// sink's shape: a streamed one is still a start frame, then the result.
	if pq.cacheable && !pq.req.Trace && !pq.req.Quality {
		csp := pq.tr.Start("result_cache")
		payload, hit := s.results.Get(pq.resultKey)
		csp.SetAttr("hit", hit)
		csp.End()
		if hit {
			out.begin(pq.id)
			s.finishRequest(pq, outcomeOK, nil, false, true, http.StatusOK, "")
			out.answer(wireResponse{
				Table:      pq.req.Table,
				Cached:     true,
				DurationNS: int64(time.Since(pq.began)),
				Result:     json.RawMessage(payload),
			})
			return
		}
	}

	// Admission: bound concurrent engine runs.
	if !s.admit(ctx, w, pq) {
		return
	}
	defer s.adm.release()
	if s.testHookRunning != nil {
		s.testHookRunning()
	}

	var planHit bool
	if pq.entry.coord != nil {
		pq.run = coordRunner(pq)
	} else {
		var err error
		if pq.run, planHit, err = s.localRunner(pq); err != nil {
			pq.fail(http.StatusUnprocessableEntity, "planning query: %v", err)
			return
		}
	}

	opts := pq.opts
	if pq.auto != nil {
		// The engine re-derives this choice from the plan and stamps it on its run span.
		opts.Executor = engine.Auto
	}
	opts.OnProgress = out.begin(pq.id)
	cres, err := pq.run.run(ctx, opts)
	timedOut := errors.Is(ctx.Err(), context.DeadlineExceeded)
	switch {
	case err == nil:
	case cres == nil || !cres.Result.Partial:
		// Nothing salvageable.
		switch {
		case errors.Is(err, context.Canceled):
			// Client gone: the status is for the access log, nobody
			// reads the body.
			pq.end(outcomeCanceled, nil, false, statusClientClosedRequest, "client closed request")
		case errors.Is(err, context.DeadlineExceeded):
			pq.end(outcomeTimedOut, nil, false, http.StatusGatewayTimeout, "query timed out before any result was available")
		default:
			// Target resolution and run errors are request-shaped too
			// (unknown candidate, group-count mismatch, …).
			pq.fail(http.StatusUnprocessableEntity, "running query: %v", err)
		}
		return
	case errors.Is(err, context.Canceled) && !timedOut:
		// A partial result exists but its client is gone: account the
		// cancellation, including the I/O the aborted run did.
		pq.end(outcomeCanceled, cres.Result, planHit, statusClientClosedRequest, "client closed request")
		return
	}

	// Progressive contract: a timed-out, budget-capped or degraded run
	// still answers with its best effort, flagged Partial — and is never
	// cached (it is not the query's answer, just a prefix of it). The
	// payload bytes are the ones every sink and the cache share.
	res := cres.Result
	payload, err := json.Marshal(toPayload(res))
	if err != nil {
		pq.fail(http.StatusInternalServerError, "encoding result: %v", err)
		return
	}
	oc := outcomeOK
	switch {
	case res.Partial && timedOut:
		oc = outcomeTimedOut
	case !res.Partial && pq.cacheable:
		s.results.Put(pq.resultKey, payload)
	}
	snap := s.finishRequest(pq, oc, res, planHit, false, http.StatusOK, "")
	s.recordQuality(pq, res)
	resp := wireResponse{
		Table:         pq.req.Table,
		DurationNS:    int64(time.Since(pq.began)),
		Shards:        cres.Shards,
		MissingShards: cres.Missing,
		Degraded:      cres.Degraded,
		Result:        json.RawMessage(payload),
	}
	if pq.req.Trace {
		resp.Trace = &snap
	}
	if pq.req.Quality {
		resp.Quality = res.Quality
	}
	out.answer(resp)
}
