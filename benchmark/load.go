package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"

	"fastmatch/internal/cluster"
	"fastmatch/internal/obs/trace"
	"fastmatch/internal/server"
)

// appendAckLimit is how late (from its due time) an append ack may be
// before the append counts as failed.
const appendAckLimit = time.Second

// queryResponse mirrors the daemon's POST /v1/query success body.
type queryResponse struct {
	Table         string                `json:"table"`
	Cached        bool                  `json:"cached"`
	DurationNS    int64                 `json:"duration_ns"`
	Trace         *trace.Snapshot       `json:"trace"`
	Shards        []cluster.ShardStatus `json:"shards"`
	MissingShards []string              `json:"missing_shards"`
	Degraded      bool                  `json:"degraded"`
	Result        server.ResultPayload  `json:"result"`
}

// newHTTPClient returns a keep-alive client holding at most conns
// connections per daemon, so the client count is the connection count.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
}

// post sends one request and reads the whole response. The latency is
// what a client sees: from just before the request is written to just
// after the last response byte is read.
func post(hc *http.Client, url, contentType string, body []byte) (status int, resp []byte, latency time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	began := time.Now()
	r, err := hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(began), err
	}
	resp, err = io.ReadAll(r.Body)
	latency = time.Since(began)
	r.Body.Close()
	return r.StatusCode, resp, latency, err
}

func getJSON(hc *http.Client, url string, v any) error {
	r, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, r.Status)
	}
	return json.NewDecoder(r.Body).Decode(v)
}

// completed is one query the window finished, kept for metrics and (the
// first gradeSample of them) for the oracle.
type completed struct {
	req     request
	latency time.Duration
	// serverNS is the response's own duration_ns; latency minus it is
	// the time no server span accounts for (encode, write, TCP).
	serverNS int64
	resp     *queryResponse // kept only for graded samples and traced replays
	failure  string         // non-empty: why the response counts as failed
}

// query issues one request and checks the response's structure.
func query(hc *http.Client, url string, req request, groups int, keep bool) completed {
	c := completed{req: req}
	status, body, latency, err := post(hc, url+"/v1/query", "application/json", req.body)
	c.latency = latency
	if err != nil {
		c.failure = err.Error()
		return c
	}
	var qr queryResponse
	c.failure = checkStructure(status, body, groups, &qr)
	c.serverNS = qr.DurationNS
	if keep {
		c.resp = &qr
	}
	return c
}

// driven is what one closed-loop phase produced.
type driven struct {
	queries []completed
	elapsed time.Duration
	cpu     time.Duration // the benchmark's own CPU time over the phase
}

// drive runs clients closed-loop clients: each takes the next request,
// waits for its response, and repeats until next reports false. A client
// always finishes the request it has in flight and elapsed runs to the
// last completion, so throughput is never cut mid-request. The first
// keep responses are kept whole for the oracle.
func drive(hc *http.Client, url string, clients, groups, keep int, next func() (request, bool)) driven {
	var (
		mu  sync.Mutex
		res driven
		wg  sync.WaitGroup
	)
	cpu0 := selfCPU()
	began := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				req, ok := next()
				keepThis := ok && keep > 0
				if keepThis {
					keep--
				}
				mu.Unlock()
				if !ok {
					return
				}
				done := query(hc, url, req, groups, keepThis)
				mu.Lock()
				res.queries = append(res.queries, done)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(began)
	res.cpu = selfCPU() - cpu0
	return res
}

// fromList adapts a fixed list of requests to drive.
func fromList(reqs []request) func() (request, bool) {
	return func() (request, bool) {
		if len(reqs) == 0 {
			return request{}, false
		}
		r := reqs[0]
		reqs = reqs[1:]
		return r, true
	}
}

// forDuration adapts a stream to drive: requests keep coming until d has
// passed since the first one was asked for — and then until the stream
// finishes its current pass over the target pool, so a window always
// holds whole passes and no target is over-represented in its median.
func forDuration(s *stream, d time.Duration) func() (request, bool) {
	var began time.Time
	return func() (request, bool) {
		if began.IsZero() {
			began = time.Now()
		}
		if time.Since(began) >= d && s.passDone() {
			return request{}, false
		}
		return s.next(), true
	}
}

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// appendRecord is one open-loop append: when it was due, when it was
// actually sent, and when the ack arrived (zero: never acked).
type appendRecord struct {
	due, sent, acked time.Time
	bytes            int
	failure          string
}

// appender posts pre-encoded CSV batches on a fixed schedule, one at a
// time on one connection. It is open-loop in the sense that matters: a
// batch's clock starts at its due time, so a stalled daemon makes every
// later batch late instead of quietly lowering the offered rate.
type appender struct {
	hc      *http.Client
	url     string
	batches [][]byte
	period  time.Duration

	stopc chan struct{}
	done  chan struct{}
	recs  []appendRecord
}

func startAppender(url string, batches [][]byte, rate int) *appender {
	a := &appender{
		hc:      newHTTPClient(1),
		url:     url + "/v1/tables/" + tableName + "/rows",
		batches: batches,
		period:  time.Second / time.Duration(rate),
		stopc:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	go a.run()
	return a
}

func (a *appender) run() {
	defer close(a.done)
	began := time.Now()
	for i, b := range a.batches {
		due := began.Add(time.Duration(i) * a.period)
		select {
		case <-a.stopc:
			return
		case <-time.After(time.Until(due)):
		}
		rec := appendRecord{due: due, sent: time.Now(), bytes: len(b)}
		status, body, _, err := post(a.hc, a.url, "text/csv", b)
		switch {
		case err != nil:
			rec.failure = err.Error()
		case status != http.StatusOK:
			rec.failure = fmt.Sprintf("append status %d: %.200s", status, body)
		default:
			rec.acked = time.Now()
			if rec.acked.Sub(due) > appendAckLimit {
				rec.failure = fmt.Sprintf("append acked %v after it was due", rec.acked.Sub(due))
			}
		}
		a.recs = append(a.recs, rec)
	}
}

// stop ends the schedule after the batch in flight and returns every
// batch posted.
func (a *appender) stop() []appendRecord {
	close(a.stopc)
	<-a.done
	a.hc.CloseIdleConnections()
	return a.recs
}

// preload appends batches back to back and fails on the first refusal.
func preload(hc *http.Client, url string, batches [][]byte) error {
	for i, b := range batches {
		status, body, _, err := post(hc, url+"/v1/tables/"+tableName+"/rows", "text/csv", b)
		if err != nil {
			return fmt.Errorf("preload batch %d: %w", i, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("preload batch %d: status %d: %.200s", i, status, body)
		}
	}
	return nil
}

// setupOnce boots the workload's topology and times what a cold start
// costs a client: from spawning the first daemon to the first query
// answered correctly — snapshot open and validation, listen, (for the
// cluster) all four processes, (for ingest) the preload through the
// append endpoint, and the first plan and bitmap-index build.
func (h *harness) setupOnce(hc *http.Client, w *workload, ds *dataset, first request, countWire bool) (*topology, time.Duration, error) {
	defer h.rec.span("setup", w.name)()
	began := time.Now()
	t, err := h.boot(hc, w, ds, countWire)
	if err != nil {
		return nil, 0, err
	}
	if w.topology == "ingest" {
		if err := preload(hc, t.front.url, ds.preload); err != nil {
			h.teardown(t)
			return nil, 0, err
		}
	}
	c := query(hc, t.front.url, first, ds.groups, false)
	took := time.Since(began)
	if c.failure != "" {
		err := fmt.Errorf("first query after boot failed: %s", c.failure)
		if derr := t.err(); derr != nil {
			err = derr
		}
		h.teardown(t)
		return nil, 0, err
	}
	return t, took, nil
}

// counters is one scrape of the front daemon's GET /v1/stats.
type counters struct {
	table     server.TableMetrics
	admission server.AdmissionStats
}

func scrape(hc *http.Client, url string) (counters, error) {
	var st server.StatsResponse
	err := getJSON(hc, url+"/v1/stats", &st)
	return counters{table: st.Tables[tableName], admission: st.Admission}, err
}
