package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"fastmatch/internal/cluster"
	"fastmatch/internal/engine"
)

// Coordinated tables: a registry entry with no local data. Queries
// scatter-gather across a fixed set of shard daemons (each an ordinary
// fastmatchd serving one row-range shard of the table) and fold the
// shard partials with the engine's merge algebra (internal/cluster).
// Every query on a coordinated table is answered by that exact scan,
// whatever executor it requests — prepareQuery rewrites the executor to
// ParallelScan — so a coordinated answer's result bytes are
// byte-identical to a single-node ParallelScan over the concatenated
// data, and it is exact, so it is never shadow-audited. Shard order is
// the row-range order; datagen -shards writes partitions in that order.

// registerCoordinated installs a coordinated entry over a shard client.
func (r *registry) registerCoordinated(name string, client *cluster.Client, queryTimeout time.Duration) error {
	if err := cluster.CheckRefs(client.Refs()); err != nil {
		return err
	}
	return r.add(&tableEntry{
		name:         name,
		source:       coordSource(client),
		coord:        client,
		metrics:      newTableMetrics(),
		loadedAt:     time.Now(),
		queryTimeout: queryTimeout,
	})
}

// coordSource renders the shard topology as the entry's source string.
func coordSource(client *cluster.Client) string {
	parts := make([]string, 0, len(client.Refs()))
	for _, ref := range client.Refs() {
		parts = append(parts, ref.Name+"="+ref.URL)
	}
	return "coordinator(" + strings.Join(parts, " ") + ")"
}

// unreachableShard stands in for a shard whose prepare-time meta failed:
// the run's connect sees that same failure at once — and reports the
// shard missing — instead of paying, or for a shard that accepts and
// never answers blocking on, a second round-trip.
type unreachableShard struct {
	cluster.Shard
	err error
}

func (u unreachableShard) Meta(context.Context) (*engine.ShardMeta, error) { return nil, u.err }

// bindShards binds pq to a coordinated table's shard set instead of a
// local engine (each bound shard memoizes its meta, so the coordinator's
// connect pays no second round-trip), derives the plan key from the
// shards' data generations, and returns the summed row count. No
// predicate compilation happens here — the raw query spec travels to the
// shards, which compile it against their own dictionaries (shared across
// shards by construction, so the resulting id spaces are identical).
func (s *Server) bindShards(ctx context.Context, pq *preparedQuery) (rows int, ok bool) {
	raw, err := json.Marshal(pq.req.Query)
	if err != nil {
		pq.fail(http.StatusUnprocessableEntity, "invalid query: %v", err)
		return 0, false
	}
	pq.shards = pq.entry.coord.Bind(pq.req.Table, raw)

	// One concurrent meta round-trip per shard: the summed row count
	// scales the default options exactly like a single node over the
	// concatenated data, and the per-shard generations key the result
	// cache so answers computed over older shard data are never reused.
	// A failed meta does not fail the request — the run degrades
	// honestly — but it disqualifies the result cache: the row total,
	// and hence the derived options, may differ from the healthy
	// cluster's. The table's query timeout bounds the fan-out, which may
	// spend at most half of it: a shard that accepts and never answers
	// then costs the request its share of the data, not its whole
	// deadline.
	if deadline, has := ctx.Deadline(); has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Until(deadline)/2)
		defer cancel()
	}
	msp := pq.tr.Start("shard_meta")
	metas := make([]*engine.ShardMeta, len(pq.shards))
	errs := make([]error, len(pq.shards))
	var wg sync.WaitGroup
	for i, sh := range pq.shards {
		wg.Add(1)
		go func(i int, sh cluster.Shard) {
			defer wg.Done()
			metas[i], errs[i] = sh.Meta(ctx)
		}(i, sh)
	}
	wg.Wait()
	msp.End()

	live := 0
	gens := make([]string, len(metas))
	for i, m := range metas {
		if m == nil {
			gens[i] = "?"
			pq.shards[i] = unreachableShard{pq.shards[i], errs[i]}
			continue
		}
		live++
		rows += m.Rows
		gens[i] = strconv.FormatUint(m.Generation, 10)
	}
	if live == 0 {
		// A shard that refused the query answered it: the query is at
		// fault, not the cluster, so its status and message go back.
		for _, err := range errs {
			var rej *cluster.RejectError
			if errors.As(err, &rej) {
				pq.fail(rej.Status, "%s", rej.Message)
				return 0, false
			}
		}
		pq.fail(http.StatusServiceUnavailable, "table %q unavailable: all %d shards unreachable", pq.req.Table, len(pq.shards))
		return 0, false
	}
	pq.cacheable = live == len(metas)

	// The raw spec bytes stand in for the compiled query's fingerprint:
	// the shards compile the spec themselves, so the coordinator keys
	// its caches on exactly what it sends them.
	qfp := sha256.Sum256(raw)
	pq.planKey = planKeyFor(pq.req.Table, pq.entry.incarnation, strings.Join(gens, ","), hex.EncodeToString(qfp[:]))
	return rows, true
}

// coordRunner runs pq as a scatter-gather across its bound shard set.
// Shard statuses ride next to — never inside — the result payload, so
// the result bytes stay byte-identical to a single node. It has no
// reference pass: its answers are exact.
func coordRunner(pq *preparedQuery) runner {
	co := cluster.New(pq.shards...)
	return runner{
		run: func(ctx context.Context, opts engine.Options) (*cluster.Result, error) {
			cres, err := co.Run(ctx, pq.target, opts)
			if cres == nil || cres.Result == nil {
				return nil, err
			}
			return cres, err
		},
	}
}
