// Package trace implements lightweight per-query span trees for the
// observability layer: a Trace collects timed, nestable Spans carrying
// per-span I/O counter deltas and small attribute maps, and renders them
// as a JSON-friendly Snapshot.
//
// The package is deliberately tiny and dependency-free (it must be
// importable from internal/engine without cycles, so it defines its own
// IO counter struct, which the engine converts to). All
// methods are nil-safe: calling Start/Child/End/SetIO/SetAttr on a nil
// *Trace or nil *Span is a no-op, so instrumented code paths need no
// "tracing enabled?" branches — a disabled run passes nil and pays only
// the nil-receiver calls it makes, which the instrumentation sites avoid
// entirely on their hot paths (same discipline as Options.OnProgress).
package trace

import (
	"sync"
	"time"
)

// IO counts the block-level I/O work attributed to one span. The engine
// converts its IOStats with trace.IO(io) at its instrumentation sites,
// so this package stays import-cycle-free; the conversion compiles only
// while the two structs have the same field names, types and order
// (Go ignores struct tags in conversions), so a field added to one but
// not the other fails the engine's build instead of dropping from traces.
type IO struct {
	BlocksRead    int64 `json:"blocks_read,omitempty"`
	BlocksSkipped int64 `json:"blocks_skipped,omitempty"`
	BlocksPruned  int64 `json:"blocks_pruned,omitempty"`
	TuplesRead    int64 `json:"tuples_read,omitempty"`
	KernelBlocks  int64 `json:"kernel_blocks,omitempty"`
	Wraps         int64 `json:"wraps,omitempty"`
}

// Add accumulates other into io.
func (io *IO) Add(other IO) {
	io.BlocksRead += other.BlocksRead
	io.BlocksSkipped += other.BlocksSkipped
	io.BlocksPruned += other.BlocksPruned
	io.TuplesRead += other.TuplesRead
	io.KernelBlocks += other.KernelBlocks
	io.Wraps += other.Wraps
}

// IsZero reports whether every counter is zero.
func (io IO) IsZero() bool { return io == IO{} }

// Trace is one query's span tree. Create with New; record spans with
// Start (roots) and Span.Child (nested), then render with Snapshot.
// All methods are safe for concurrent use — parallel scan workers may
// open sibling spans simultaneously.
type Trace struct {
	mu    sync.Mutex
	id    string
	began time.Time
	ended time.Time
	roots []*Span
}

// Span is one timed region of a traced run.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	end      time.Time
	attrs    map[string]any
	io       *IO
	children []*Span
}

// New creates an empty trace identified by id (the serving layer's query
// ID), starting its clock now.
func New(id string) *Trace {
	return &Trace{id: id, began: time.Now()}
}

// ID returns the trace's identifier ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start opens a root span. Nil-safe: a nil trace returns a nil span,
// on which every Span method is a no-op.
func (t *Trace) Start(name string) *Span { return t.StartAt(name, time.Now()) }

// StartAt is Start with an explicit start time (for spans whose work
// began before the instrumentation point, e.g. a run's first phase).
func (t *Trace) StartAt(name string, at time.Time) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, name: name, start: at}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// End stamps the trace's overall end time; Snapshot of an un-Ended trace
// uses the current time instead.
func (t *Trace) End() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ended = time.Now()
	t.mu.Unlock()
}

// Child opens a nested span under s.
func (s *Span) Child(name string) *Span { return s.ChildAt(name, time.Now()) }

// ChildAt is Child with an explicit start time.
func (s *Span) ChildAt(name string, at time.Time) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: at}
	s.tr.mu.Lock()
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// End closes the span now.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt closes the span at an explicit time.
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.end = at
	s.tr.mu.Unlock()
}

// SetIO attributes I/O counters to the span (typically a delta between
// two engine IOStats snapshots). Only leaf work spans carry IO, so
// summing every span's IO across the tree equals the run's total.
func (s *Span) SetIO(io IO) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	cp := io
	s.io = &cp
	s.tr.mu.Unlock()
}

// SetAttr attaches a key/value attribute to the span. Values must be
// JSON-marshalable.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.tr.mu.Unlock()
}

// Snapshot is the JSON-friendly rendering of a trace: span times are
// offsets from the trace start in nanoseconds, so snapshots are stable
// under clock adjustments mid-run and compact on the wire.
type Snapshot struct {
	QueryID    string         `json:"query_id,omitempty"`
	StartTime  time.Time      `json:"start_time"`
	DurationNS int64          `json:"duration_ns"`
	Spans      []SpanSnapshot `json:"spans"`
}

// SpanSnapshot is one span in a Snapshot.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	StartNS    int64          `json:"start_ns"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	IO         *IO            `json:"io,omitempty"`
	Children   []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot renders the trace as a deep copy safe to marshal, retain, or
// hand across API boundaries after the trace keeps being written to.
// A nil trace renders as a zero Snapshot.
func (t *Trace) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.ended
	if end.IsZero() {
		end = time.Now()
	}
	out := Snapshot{
		QueryID:    t.id,
		StartTime:  t.began,
		DurationNS: end.Sub(t.began).Nanoseconds(),
		Spans:      snapshotSpans(t.roots, t.began, end),
	}
	return out
}

func snapshotSpans(spans []*Span, base, traceEnd time.Time) []SpanSnapshot {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanSnapshot, len(spans))
	for i, s := range spans {
		end := s.end
		if end.IsZero() {
			end = traceEnd
		}
		ss := SpanSnapshot{
			Name:       s.name,
			StartNS:    s.start.Sub(base).Nanoseconds(),
			DurationNS: end.Sub(s.start).Nanoseconds(),
			Children:   snapshotSpans(s.children, base, traceEnd),
		}
		if s.io != nil {
			cp := *s.io
			ss.IO = &cp
		}
		if len(s.attrs) > 0 {
			attrs := make(map[string]any, len(s.attrs))
			for k, v := range s.attrs {
				attrs[k] = v
			}
			ss.Attrs = attrs
		}
		out[i] = ss
	}
	return out
}

// SumIO totals the IO attributed to every span in the snapshot's tree.
// Instrumentation attaches IO only to leaf work spans, so for a traced
// engine run this equals the run's total IOStats — the invariant the
// equivalence tests pin.
func (sn Snapshot) SumIO() IO {
	var total IO
	var walk func([]SpanSnapshot)
	walk = func(spans []SpanSnapshot) {
		for i := range spans {
			if spans[i].IO != nil {
				total.Add(*spans[i].IO)
			}
			walk(spans[i].Children)
		}
	}
	walk(sn.Spans)
	return total
}

// Find returns the first span with the given name in depth-first order,
// or nil — a convenience for tests and log formatters.
func (sn Snapshot) Find(name string) *SpanSnapshot {
	var found *SpanSnapshot
	var walk func(spans []SpanSnapshot) bool
	walk = func(spans []SpanSnapshot) bool {
		for i := range spans {
			if spans[i].Name == name {
				found = &spans[i]
				return true
			}
			if walk(spans[i].Children) {
				return true
			}
		}
		return false
	}
	walk(sn.Spans)
	return found
}
