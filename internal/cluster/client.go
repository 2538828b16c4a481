package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fastmatch/internal/engine"
)

// PartialRequest is the wire body of POST /v1/internal/partial — the
// shard-internal endpoint coordinators fold through. Query carries the
// raw QuerySpec JSON verbatim: each shard compiles it locally against
// its own engine, so candidate predicates and binning resolve on the
// data they apply to (shared dictionaries make the resulting id spaces
// identical).
type PartialRequest struct {
	Table string          `json:"table"`
	Query json.RawMessage `json:"query"`
	// Op selects the call: "meta" answers the plan's shard metadata,
	// "segment" executes one stateless segment.
	Op      string               `json:"op"`
	Segment *engine.ShardSegment `json:"segment,omitempty"`
}

// PartialResponse is the success body of POST /v1/internal/partial:
// exactly one of Meta/Segment is set, matching the request Op.
type PartialResponse struct {
	Meta    *engine.ShardMeta          `json:"meta,omitempty"`
	Segment *engine.ShardSegmentResult `json:"segment,omitempty"`
}

// ShardRef names one shard daemon: a stable name (the label in shard
// statuses and metrics) and the base URL of its fastmatchd HTTP API.
type ShardRef struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// ShardClientStats is a snapshot of one shard's client-side counters,
// surfaced through /v1/stats and /metrics on the coordinator.
type ShardClientStats struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Requests counts HTTP attempts (retries included); Errors counts
	// attempts that failed; Retries counts re-attempts after a failure.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Retries  int64 `json:"retries"`
	// LatencyCount/LatencySumNS accumulate per-attempt round-trip time.
	LatencyCount int64 `json:"latency_count"`
	LatencySumNS int64 `json:"latency_sum_ns"`
	// Healthy reports whether the most recent attempt succeeded.
	Healthy   bool   `json:"healthy"`
	LastError string `json:"last_error,omitempty"`
}

// shardCounters is the live (atomic) form of ShardClientStats.
type shardCounters struct {
	requests     atomic.Int64
	errors       atomic.Int64
	retries      atomic.Int64
	latencyCount atomic.Int64
	latencySumNS atomic.Int64
	unhealthy    atomic.Bool
	mu           sync.Mutex
	lastError    string
}

// RejectError is a shard's 4xx answer: the shard is up and refused the
// request itself (an unplannable or oversized query, say), so no retry
// can help and the shard's error count and health are left alone.
type RejectError struct {
	Shard   string
	Status  int
	Message string
}

// Error implements error.
func (e *RejectError) Error() string {
	return fmt.Sprintf("cluster: shard %q: HTTP %d: %s", e.Shard, e.Status, e.Message)
}

func (sc *shardCounters) fail(err error) {
	sc.errors.Add(1)
	sc.unhealthy.Store(true)
	sc.mu.Lock()
	sc.lastError = err.Error()
	sc.mu.Unlock()
}

// Client talks to a fixed shard set over HTTP. All shards share one
// http.Transport (keep-alive pools per host, bounded idle connections),
// so a coordinator serving many queries reuses connections instead of
// re-dialing per segment. Segment calls are stateless and idempotent,
// which is what makes the retry policy sound.
type Client struct {
	refs     []ShardRef
	hc       *http.Client
	counters []*shardCounters
}

// A failed shard call is re-attempted up to shardRetries times, with
// exponential backoff starting at shardBackoff.
const (
	shardRetries = 2
	shardBackoff = 50 * time.Millisecond
)

// NewClient builds a shard client over refs.
func NewClient(refs []ShardRef) *Client {
	tr := &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}
	c := &Client{
		refs: refs,
		hc:   &http.Client{Transport: tr},
	}
	for range refs {
		c.counters = append(c.counters, &shardCounters{})
	}
	return c
}

// CheckRefs refuses a shard set that lists one shard twice, by name or
// by URL: the coordinator would fold its rows twice.
func CheckRefs(refs []ShardRef) error {
	seen := make(map[string]bool, 2*len(refs))
	for _, ref := range refs {
		for _, key := range []string{"name " + ref.Name, "URL " + ref.URL} {
			if seen[key] {
				return fmt.Errorf("cluster: shard %s listed twice", key)
			}
			seen[key] = true
		}
	}
	return nil
}

// Refs returns the configured shard set, in row-range order.
func (c *Client) Refs() []ShardRef { return c.refs }

// Close releases the idle connections held by the shared transport.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Stats snapshots every shard's client-side counters.
func (c *Client) Stats() []ShardClientStats {
	out := make([]ShardClientStats, len(c.refs))
	for i, ref := range c.refs {
		sc := c.counters[i]
		sc.mu.Lock()
		lastErr := sc.lastError
		sc.mu.Unlock()
		out[i] = ShardClientStats{
			Name:         ref.Name,
			URL:          ref.URL,
			Requests:     sc.requests.Load(),
			Errors:       sc.errors.Load(),
			Retries:      sc.retries.Load(),
			LatencyCount: sc.latencyCount.Load(),
			LatencySumNS: sc.latencySumNS.Load(),
			Healthy:      !sc.unhealthy.Load(),
			LastError:    lastErr,
		}
	}
	return out
}

// Bind builds the per-request shard set for one (table, query) pair.
// Each bound shard memoizes its Meta: the serving layer prefetches
// metadata (for option scaling and cache keys) and the coordinator's
// connect then reuses the same snapshot instead of re-fetching — one
// meta round-trip per shard per request, and a consistent generation
// between the cache key and the run.
func (c *Client) Bind(table string, query json.RawMessage) []Shard {
	out := make([]Shard, len(c.refs))
	for i := range c.refs {
		out[i] = &boundShard{c: c, idx: i, table: table, query: query}
	}
	return out
}

// boundShard is one shard bound to a request's (table, query).
type boundShard struct {
	c     *Client
	idx   int
	table string
	query json.RawMessage

	mu   sync.Mutex
	meta *engine.ShardMeta
}

func (b *boundShard) Name() string { return b.c.refs[b.idx].Name }

// Meta implements Shard, memoizing the first successful fetch.
func (b *boundShard) Meta(ctx context.Context) (*engine.ShardMeta, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.meta != nil {
		return b.meta, nil
	}
	resp, err := b.c.post(ctx, b.idx, &PartialRequest{Table: b.table, Query: b.query, Op: "meta"})
	if err != nil {
		return nil, err
	}
	if resp.Meta == nil {
		return nil, fmt.Errorf("cluster: shard %q: meta call returned no metadata", b.Name())
	}
	b.meta = resp.Meta
	return b.meta, nil
}

// Segment implements Shard.
func (b *boundShard) Segment(ctx context.Context, seg *engine.ShardSegment) (*engine.ShardSegmentResult, error) {
	resp, err := b.c.post(ctx, b.idx, &PartialRequest{Table: b.table, Query: b.query, Op: "segment", Segment: seg})
	if err != nil {
		return nil, err
	}
	if resp.Segment == nil {
		return nil, fmt.Errorf("cluster: shard %q: segment call returned no result", b.Name())
	}
	return resp.Segment, nil
}

// post issues one shard call with retries. Transport failures and 5xx
// responses retry with exponential backoff (segments are stateless, so
// a duplicate execution is harmless); a 4xx response is a *RejectError,
// returned at once — the request itself is wrong and retrying cannot fix
// it — and not counted against the shard.
func (c *Client) post(ctx context.Context, idx int, preq *PartialRequest) (*PartialResponse, error) {
	body, err := json.Marshal(preq)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %q: %w", c.refs[idx].Name, err)
	}
	sc := c.counters[idx]
	var lastErr error
	for attempt := 0; attempt <= shardRetries; attempt++ {
		if attempt > 0 {
			sc.retries.Add(1)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(shardBackoff << (attempt - 1)):
			}
		}
		resp, permanent, err := c.attempt(ctx, idx, body)
		if err == nil {
			sc.unhealthy.Store(false)
			return resp, nil
		}
		lastErr = err
		if errors.Is(ctx.Err(), context.Canceled) {
			// The caller walked away mid-call: that says nothing about
			// the shard, so its error count and health stay as they were.
			// (A deadline expiring on the call still counts — the shard
			// was the slow one.)
			break
		}
		var rej *RejectError
		if errors.As(err, &rej) {
			break
		}
		sc.fail(err)
		if permanent || ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func (c *Client) attempt(ctx context.Context, idx int, body []byte) (_ *PartialResponse, permanent bool, _ error) {
	ref := c.refs[idx]
	sc := c.counters[idx]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ref.URL+"/v1/internal/partial", bytes.NewReader(body))
	if err != nil {
		return nil, true, fmt.Errorf("cluster: shard %q: %w", ref.Name, err)
	}
	req.Header.Set("Content-Type", "application/json")
	sc.requests.Add(1)
	began := time.Now()
	httpResp, err := c.hc.Do(req)
	sc.latencyCount.Add(1)
	sc.latencySumNS.Add(time.Since(began).Nanoseconds())
	if err != nil {
		return nil, false, fmt.Errorf("cluster: shard %q: %w", ref.Name, err)
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(httpResp.Body, 64<<20))
	if err != nil {
		return nil, false, fmt.Errorf("cluster: shard %q: %w", ref.Name, err)
	}
	if httpResp.StatusCode != http.StatusOK {
		var apiErr struct {
			Error string `json:"error"`
		}
		msg := string(data)
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		if httpResp.StatusCode >= 400 && httpResp.StatusCode < 500 {
			return nil, true, &RejectError{Shard: ref.Name, Status: httpResp.StatusCode, Message: msg}
		}
		return nil, false, fmt.Errorf("cluster: shard %q: HTTP %d: %s", ref.Name, httpResp.StatusCode, msg)
	}
	var out PartialResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, false, fmt.Errorf("cluster: shard %q: %w", ref.Name, err)
	}
	return &out, false, nil
}
