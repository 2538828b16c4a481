package engine

import (
	"fmt"
	"strings"
	"testing"

	"fastmatch/internal/obs/trace"
)

// TestTraceSpanShape pins the documented tree: a "run" root carrying the
// executor attribute, phase children for the sampling executors
// (stage1, stage2.roundN, stage3), one worker child per scan worker, and
// plan/groups/candidates/skip_masks spans from PrepareTraced.
func TestTraceSpanShape(t *testing.T) {
	tbl := skipTestTable(t)
	eng := New(tbl)
	q := skipQueries(t, eng)["pred-cands"]

	t.Run("plan", func(t *testing.T) {
		tr := trace.New("plan-trace")
		if _, err := eng.PrepareTraced(q, tr); err != nil {
			t.Fatal(err)
		}
		tr.End()
		snap := tr.Snapshot()
		plan := snap.Find("plan")
		if plan == nil {
			t.Fatalf("no plan span in %+v", snap.Spans)
		}
		for _, child := range []string{"groups", "candidates", "skip_masks"} {
			if snap.Find(child) == nil {
				t.Fatalf("plan span missing %q child", child)
			}
		}
	})

	run := func(t *testing.T, exec Executor, workers int) trace.Snapshot {
		t.Helper()
		opts := runOptions(exec, tbl.NumBlocks(), workers)
		tr := trace.New("shape")
		opts.Trace = tr
		if _, err := eng.Run(q, Target{Uniform: true}, opts); err != nil {
			t.Fatal(err)
		}
		tr.End()
		return tr.Snapshot()
	}

	t.Run("run-root", func(t *testing.T) {
		for _, exec := range allExecutors() {
			snap := run(t, exec, 4)
			rs := snap.Find("run")
			if rs == nil {
				t.Fatalf("%s: no run span", exec)
			}
			if got := rs.Attrs["executor"]; got != exec.String() {
				t.Fatalf("%s: executor attr = %v", exec, got)
			}
			if snap.Find("resolve_target") == nil {
				t.Fatalf("%s: no resolve_target span", exec)
			}
			if len(rs.Children) == 0 {
				t.Fatalf("%s: run span has no children", exec)
			}
		}
	})

	t.Run("scan-workers", func(t *testing.T) {
		snap := run(t, ParallelScan, 3)
		for w := 0; w < 3; w++ {
			sp := snap.Find(fmt.Sprintf("worker%d", w))
			if sp == nil {
				t.Fatalf("no worker%d span", w)
			}
			if sp.IO == nil {
				t.Fatalf("worker%d span carries no IO", w)
			}
			if _, ok := sp.Attrs["blocks"]; !ok {
				t.Fatalf("worker%d span has no blocks attr", w)
			}
		}
	})

	t.Run("sampler-phases", func(t *testing.T) {
		// The binned-measure query keeps all 8 Z values in play, so the
		// samplers need stage-2 rounds to separate them.
		bq := skipQueries(t, eng)["binned-measure"]
		for _, exec := range []Executor{ScanMatch, SyncMatch, FastMatch} {
			opts := runOptions(exec, tbl.NumBlocks(), 4)
			// A small stage-1 draw can't separate 8 live candidates at a
			// tight epsilon, so stage 2 must run rounds.
			opts.Params.Stage1Samples = 256
			opts.Params.Epsilon = 0.02
			tr := trace.New("phases")
			opts.Trace = tr
			res, err := eng.Run(bq, Target{Uniform: true}, opts)
			if err != nil {
				t.Fatal(err)
			}
			tr.End()
			snap := tr.Snapshot()
			if snap.Find("stage1") == nil {
				t.Fatalf("%s: no stage1 span", exec)
			}
			rs := snap.Find("run")
			rounds := 0
			for i := range rs.Children {
				if strings.HasPrefix(rs.Children[i].Name, "stage2.round") {
					rounds++
				}
			}
			if rounds != res.Stats.Rounds {
				t.Fatalf("%s: %d stage2 round spans, result reports %d rounds (children %+v)",
					exec, rounds, res.Stats.Rounds, rs.Children)
			}
			if res.Stats.Rounds == 0 {
				t.Fatalf("%s: query converged without stage-2 rounds; pick a harder query", exec)
			}
		}
	})
}
