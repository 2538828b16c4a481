package main

import (
	"encoding/json"
	"os"
	"time"

	"fastmatch/internal/obs/trace"
)

// harnessSpan is one span recorded by the benchmark itself, around its
// phases and around each call into a layer. Times are nanoseconds since
// the recorder started; Parent is the enclosing span's ID (0: none).
type harnessSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request string `json:"request,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps harness spans in memory until the run ends. Spans nest
// by call order, so it is used from the benchmark's main goroutine only.
type recorder struct {
	began time.Time
	spans []harnessSpan
	open  []int // stack of open span IDs
}

func newRecorder() *recorder { return &recorder{began: time.Now()} }

// span opens a span under the innermost open one and returns the
// function that closes it: defer r.span("name", "")().
func (r *recorder) span(name, request string) func() {
	id := len(r.spans) + 1
	parent := 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, harnessSpan{ID: id, Parent: parent, Name: name, Request: request, StartNS: int64(time.Since(r.began))})
	r.open = append(r.open, id)
	return func() {
		r.spans[id-1].EndNS = int64(time.Since(r.began))
		r.open = r.open[:len(r.open)-1]
	}
}

// adopt hangs a server-side span tree under the innermost open span, so
// one file shows a traced request from the client's clock down to the
// daemon's stage spans. began is when the client sent the request.
func (r *recorder) adopt(sn trace.Snapshot, began time.Time) {
	if len(r.open) == 0 {
		return
	}
	base := int64(began.Sub(r.began))
	var walk func(parent int, spans []trace.SpanSnapshot)
	walk = func(parent int, spans []trace.SpanSnapshot) {
		for _, s := range spans {
			id := len(r.spans) + 1
			r.spans = append(r.spans, harnessSpan{
				ID: id, Parent: parent, Name: "server." + s.Name, Request: sn.QueryID,
				StartNS: base + s.StartNS, EndNS: base + s.StartNS + s.DurationNS,
			})
			walk(id, s.Children)
		}
	}
	walk(r.open[len(r.open)-1], sn.Spans)
}

// write dumps the recorded spans as JSON.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []harnessSpan `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
