package server

import (
	"encoding/json"
	"net/http"
	"sync"

	"fastmatch/internal/cluster"
	"fastmatch/internal/engine"
	"fastmatch/internal/obs/trace"
)

// The NDJSON streaming form of the query API: POST /v1/query/stream
// answers with one JSON object per line — zero or more progress frames
// followed by exactly one terminal frame (a result or an error). The
// terminal result payload is byte-identical to what POST /v1/query
// returns for the same request (modulo the Partial flag when the run was
// cut short), so a client can switch between the two endpoints freely.
//
// Frames:
//
//	{"type":"progress","progress":{...engine.Progress...}}
//	{"type":"result","table":...,"cached":...,"duration_ns":...,"result":{...}}
//	{"type":"error","error":"..."}
//
// The run is bound to the request context: a client that disconnects
// mid-stream cancels the underlying scan at its next block boundary.

// StreamFrame is one NDJSON line of a /v1/query/stream response.
type StreamFrame struct {
	// Type is "progress", "result", or "error".
	Type string `json:"type"`
	// QueryID identifies the request (the X-Query-ID header value),
	// carried on the start frame so stream consumers can correlate the
	// run with traces, logs, and /v1/debug/quality without reading
	// response headers.
	QueryID string `json:"query_id,omitempty"`
	// Progress carries interim run state ("progress" frames). The first
	// frame of every stream is a progress frame with phase "start",
	// emitted before the run begins. When the request set "quality":
	// true, round frames carry convergence telemetry (Progress.Quality,
	// per-match CI).
	Progress *engine.Progress `json:"progress,omitempty"`
	// Table/Cached/DurationNS/Trace/Quality/Result mirror the blocking
	// endpoint's response ("result" frames); Trace and Quality are
	// present only when the request asked for them.
	Table      string                `json:"table,omitempty"`
	Cached     bool                  `json:"cached,omitempty"`
	DurationNS int64                 `json:"duration_ns,omitempty"`
	Trace      *trace.Snapshot       `json:"trace,omitempty"`
	Quality    *engine.QualityReport `json:"quality,omitempty"`
	// Shards/MissingShards/Degraded carry per-shard status on a
	// coordinated table's terminal frame, mirroring wireResponse; like
	// Trace they precede Result so result-byte slicing keeps working.
	Shards        []cluster.ShardStatus `json:"shards,omitempty"`
	MissingShards []string              `json:"missing_shards,omitempty"`
	Degraded      bool                  `json:"degraded,omitempty"`
	Result        json.RawMessage       `json:"result,omitempty"`
	// Error describes a failed run ("error" frames).
	Error string `json:"error,omitempty"`
}

// streamSink is the NDJSON sink: it serializes frames onto the wire,
// flushing each so progress is delivered as it happens, not when the
// response ends. The mutex makes frame writes atomic even if an executor
// ever emits from a worker goroutine. enc is nil until begin.
type streamSink struct {
	w   http.ResponseWriter
	mu  sync.Mutex
	enc *json.Encoder
	fl  http.Flusher
}

func (k *streamSink) frame(f StreamFrame) {
	k.mu.Lock()
	defer k.mu.Unlock()
	// A write error means the client is gone; the run's context (tied to
	// the connection) is what actually stops the work, so errors here
	// are deliberately dropped.
	_ = k.enc.Encode(f)
	if k.fl != nil {
		k.fl.Flush()
	}
}

// begin opens the stream with a start frame carrying the query ID:
// clients can render "query accepted" immediately and correlate the
// stream with traces and audit records, and even a cached or instant
// answer keeps the progress-then-result frame shape.
func (k *streamSink) begin(queryID string) func(engine.Progress) {
	k.w.Header().Set("Content-Type", "application/x-ndjson")
	k.w.Header().Set("Cache-Control", "no-store")
	k.w.WriteHeader(http.StatusOK)
	k.enc = json.NewEncoder(k.w)
	k.fl, _ = k.w.(http.Flusher)
	k.frame(StreamFrame{Type: "progress", QueryID: queryID, Progress: &engine.Progress{Phase: "start"}})
	return func(p engine.Progress) {
		k.frame(StreamFrame{Type: "progress", Progress: &p})
	}
}

func (k *streamSink) carried(status int) int {
	if k.enc != nil {
		return http.StatusOK
	}
	return status
}

func (k *streamSink) fail(status int, msg string) {
	switch {
	case k.enc == nil:
		// Nothing has been streamed yet, so the client still gets proper
		// error semantics.
		writeJSON(k.w, status, ErrorResponse{Error: msg})
	case status != statusClientClosedRequest: // else no one is listening for a frame
		k.frame(StreamFrame{Type: "error", Error: msg})
	}
}

func (k *streamSink) answer(resp wireResponse) {
	k.frame(StreamFrame{
		Type:          "result",
		Table:         resp.Table,
		Cached:        resp.Cached,
		DurationNS:    resp.DurationNS,
		Trace:         resp.Trace,
		Quality:       resp.Quality,
		Shards:        resp.Shards,
		MissingShards: resp.MissingShards,
		Degraded:      resp.Degraded,
		Result:        resp.Result,
	})
}
