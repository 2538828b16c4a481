package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// Nil receivers are the whole disabled-tracing contract: every method on
// a nil *Trace or nil *Span must be a safe no-op, so instrumented code
// never branches on "is tracing on".
func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Fatal("nil trace has an ID")
	}
	sp := tr.Start("root")
	if sp != nil {
		t.Fatal("nil trace issued a span")
	}
	child := sp.Child("child")
	child.SetAttr("k", "v")
	child.SetIO(IO{BlocksRead: 1})
	child.End()
	sp.End()
	tr.End()
	snap := tr.Snapshot()
	if len(snap.Spans) != 0 || snap.QueryID != "" {
		t.Fatalf("nil trace snapshot not zero: %+v", snap)
	}
	if snap.Find("root") != nil {
		t.Fatal("nil snapshot found a span")
	}
	if snap.SumIO() != (IO{}) {
		t.Fatal("nil snapshot has IO")
	}
}

func TestTreeShapeAndSumIO(t *testing.T) {
	tr := New("q1")
	if tr.ID() != "q1" {
		t.Fatalf("ID = %q", tr.ID())
	}
	root := tr.Start("run")
	root.SetAttr("executor", "scan")
	a := root.Child("worker0")
	a.SetIO(IO{BlocksRead: 3, TuplesRead: 100})
	a.End()
	b := root.Child("worker1")
	b.SetIO(IO{BlocksRead: 2, TuplesRead: 50, BlocksPruned: 1})
	b.End()
	root.End()
	other := tr.Start("resolve_target")
	other.End()
	tr.End()

	snap := tr.Snapshot()
	if snap.QueryID != "q1" {
		t.Fatalf("QueryID = %q", snap.QueryID)
	}
	if len(snap.Spans) != 2 {
		t.Fatalf("want 2 roots, got %d", len(snap.Spans))
	}
	run := snap.Find("run")
	if run == nil || len(run.Children) != 2 {
		t.Fatalf("run span wrong: %+v", run)
	}
	if run.Attrs["executor"] != "scan" {
		t.Fatalf("attrs = %v", run.Attrs)
	}
	want := IO{BlocksRead: 5, TuplesRead: 150, BlocksPruned: 1}
	if got := snap.SumIO(); got != want {
		t.Fatalf("SumIO = %+v, want %+v", got, want)
	}
	if w1 := snap.Find("worker1"); w1 == nil || w1.IO == nil || w1.IO.BlocksPruned != 1 {
		t.Fatalf("worker1 wrong: %+v", w1)
	}
	if snap.Find("absent") != nil {
		t.Fatal("Find invented a span")
	}
}

// Snapshot must be a deep copy: mutating the live trace after snapping
// may not change an already-taken snapshot.
func TestSnapshotIsDeepCopy(t *testing.T) {
	tr := New("q")
	root := tr.Start("run")
	root.SetAttr("n", 1)
	root.SetIO(IO{BlocksRead: 1})
	snap := tr.Snapshot()

	root.SetAttr("n", 2)
	root.SetIO(IO{BlocksRead: 99})
	root.Child("late").End()
	root.End()
	tr.End()

	got := snap.Find("run")
	if got.Attrs["n"] != 1 {
		t.Fatalf("snapshot attr mutated: %v", got.Attrs)
	}
	if got.IO.BlocksRead != 1 {
		t.Fatalf("snapshot IO mutated: %+v", got.IO)
	}
	if len(got.Children) != 0 {
		t.Fatal("snapshot grew a child after the fact")
	}
}

// Un-ended spans snapshot with the trace end (or now) as their end, so a
// snapshot taken mid-run still renders a complete, monotonic tree.
func TestUnendedSpansClampToTraceEnd(t *testing.T) {
	tr := New("q")
	began := time.Now()
	sp := tr.StartAt("run", began)
	_ = sp
	tr.End()
	snap := tr.Snapshot()
	run := snap.Find("run")
	if run == nil {
		t.Fatal("no run span")
	}
	if run.DurationNS < 0 || run.DurationNS > snap.DurationNS {
		t.Fatalf("clamped duration %d outside trace duration %d", run.DurationNS, snap.DurationNS)
	}
}

func TestSnapshotMarshalsCompactJSON(t *testing.T) {
	tr := New("q")
	sp := tr.Start("run")
	sp.SetIO(IO{TuplesRead: 7})
	sp.End()
	tr.End()
	b, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.QueryID != "q" || len(back.Spans) != 1 || back.Spans[0].IO.TuplesRead != 7 {
		t.Fatalf("round trip lost data: %s", b)
	}
	// Zero IO fields are omitted on the wire.
	if strings.Contains(string(b), `"blocks_read"`) {
		t.Fatalf("zero IO field serialized: %s", b)
	}
}

func TestIOAddAndIsZero(t *testing.T) {
	var io IO
	if !io.IsZero() {
		t.Fatal("zero IO not zero")
	}
	io.Add(IO{BlocksRead: 1, Wraps: 2})
	io.Add(IO{BlocksRead: 2, TuplesRead: 3})
	want := IO{BlocksRead: 3, Wraps: 2, TuplesRead: 3}
	if io != want {
		t.Fatalf("Add = %+v, want %+v", io, want)
	}
	if io.IsZero() {
		t.Fatal("nonzero IO reads as zero")
	}
}
