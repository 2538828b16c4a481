package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fastmatch/internal/engine"
	"fastmatch/internal/obs/trace"
)

// fakeClock is an injectable, goroutine-safe clock for the query log's
// retention sweep.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func logRecord(start time.Time, id string, dur time.Duration) *QueryRecord {
	return &QueryRecord{
		QueryID:    id,
		DurationNS: dur.Nanoseconds(),
		Trace:      trace.Snapshot{QueryID: id, StartTime: start, DurationNS: dur.Nanoseconds()},
	}
}

func recordIDs(recs []QueryRecord) string {
	ids := ""
	for _, r := range recs {
		ids += r.QueryID
	}
	return ids
}

// TestQueryLogOrdering checks both views within one bound: the slowest
// view keeps the slowest records duration-descending, the newest view
// the latest arrivals newest first, and a lookup finds a record that is
// in either view.
func TestQueryLogOrdering(t *testing.T) {
	l := newQueryLog(3)
	add := func(id string, d time.Duration) { l.add(logRecord(time.Now(), id, d)) }
	add("a", 10*time.Millisecond)
	add("b", 30*time.Millisecond)
	add("c", 20*time.Millisecond)
	add("d", 5*time.Millisecond) // too fast for the full slowest view
	add("e", 25*time.Millisecond)
	if got := recordIDs(l.list(true)); got != "bec" {
		t.Fatalf("slowest view %q, want \"bec\"", got)
	}
	if got := recordIDs(l.list(false)); got != "edc" {
		t.Fatalf("newest view %q, want \"edc\"", got)
	}
	for id, want := range map[string]bool{"a": false, "b": true, "d": true, "e": true} {
		if _, ok := l.get(id); ok != want {
			t.Fatalf("get(%q) found=%v, want %v", id, ok, want)
		}
	}

	disabled := newQueryLog(-1)
	disabled.add(logRecord(time.Now(), "x", time.Second))
	if len(disabled.list(false)) != 0 || len(disabled.list(true)) != 0 {
		t.Fatal("disabled log recorded a query")
	}
}

// TestQueryLogRetentionSweep: records older than the 15-minute window
// leave the slowest view when new ones arrive, even when they were
// slower — a pathological request from long ago must not squat in it.
func TestQueryLogRetentionSweep(t *testing.T) {
	clock := &fakeClock{now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
	l := newQueryLog(2)
	l.now = clock.Now

	// A very slow old record fills a slot and, while fresh, outcompetes
	// a faster newcomer for the contested second slot.
	l.add(logRecord(clock.Now(), "old-slow", 10*time.Second))
	clock.Advance(time.Minute)
	l.add(logRecord(clock.Now(), "mid", 2*time.Second))
	clock.Advance(time.Minute)
	l.add(logRecord(clock.Now(), "fast", time.Second))
	if got := l.list(true); len(got) != 2 || got[0].QueryID != "old-slow" || got[1].QueryID != "mid" {
		t.Fatalf("pre-sweep slowest view: %+v", got)
	}

	// Past the retention window both survivors expire; the next record
	// sweeps them and keeps only itself. The newest view is bounded by
	// count alone.
	clock.Advance(traceRetention)
	l.add(logRecord(clock.Now(), "new", 50*time.Millisecond))
	if got := l.list(true); len(got) != 1 || got[0].QueryID != "new" {
		t.Fatalf("post-sweep slowest view: %+v", got)
	}
	if got := recordIDs(l.list(false)); got != "newfast" {
		t.Fatalf("newest view %q, want \"newfast\"", got)
	}
}

// TestQueryLogConcurrentSweep hammers the log from many goroutines
// while the clock jumps across retention boundaries — run under -race
// this checks the sweep holds up with concurrent inserts, lookups and
// audit fills.
func TestQueryLogConcurrentSweep(t *testing.T) {
	clock := &fakeClock{now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
	l := newQueryLog(8)
	l.now = clock.Now

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("q-%d-%d", g, i)
				l.add(logRecord(clock.Now(), id, time.Duration(i)*time.Millisecond))
				l.setAudit(fmt.Sprintf("q-%d-%d", g, i/2), &engine.Audit{K: i}, "")
				l.get(id)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			clock.Advance(traceRetention / 3)
		}
	}()
	wg.Wait()

	// The sweep runs on insert: one sentinel record at the final clock
	// value evicts everything outside the window, so afterwards every
	// survivor must respect the invariants — within cap, sorted
	// duration-descending, within retention of "now".
	now := clock.Now()
	l.add(logRecord(now, "sentinel", time.Hour))
	got := l.list(true)
	if len(got) == 0 || len(got) > 8 {
		t.Fatalf("slowest view size %d, want 1..8", len(got))
	}
	if got[0].QueryID != "sentinel" {
		t.Fatalf("slowest record %q, want sentinel", got[0].QueryID)
	}
	for i, r := range got {
		if i > 0 && r.DurationNS > got[i-1].DurationNS {
			t.Fatalf("slowest view not duration-sorted at %d: %+v", i, got)
		}
		if now.Sub(r.Trace.StartTime) > traceRetention {
			t.Fatalf("stale record survived the sweep: %+v (now %v)", r, now)
		}
	}
	if n := len(l.list(false)); n != 8 {
		t.Fatalf("newest view holds %d, want 8", n)
	}
}

// TestQueryLogDropsLateAuditOfEvictedRecord: an audit that finishes
// after its record left both views neither brings the record back nor
// lands on another one.
func TestQueryLogDropsLateAuditOfEvictedRecord(t *testing.T) {
	l := newQueryLog(1)
	l.add(logRecord(time.Now(), "audited", time.Millisecond))
	l.add(logRecord(time.Now(), "later", time.Second)) // evicts "audited" from both views
	l.setAudit("audited", &engine.Audit{K: 3}, "")
	if _, ok := l.get("audited"); ok {
		t.Fatal("late audit brought an evicted record back")
	}
	for _, slowest := range []bool{false, true} {
		for _, r := range l.list(slowest) {
			if r.Audit != nil {
				t.Fatalf("late audit landed on %q", r.QueryID)
			}
		}
	}
}
