package engine

import (
	"context"
	"errors"
	"testing"
)

// TestRunShardSegmentRejectsImpossibleWalkState feeds RunShardSegment walk
// state no coordinator walk could have produced — the segment arrives
// from the wire — and requires a typed refusal naming the field instead
// of a run: before validation an unknown executor silently ran as
// ScanMatch and a lying consumed_count flipped Exhausted/Exact.
func TestRunShardSegmentRejectsImpossibleWalkState(t *testing.T) {
	tbl := testDataset(t, 10_000, 10, 6, 61)
	p, err := New(tbl).Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	nb := tbl.NumBlocks()
	words := (nb + 63) / 64
	if nb%64 == 0 {
		t.Fatalf("fixture has %d blocks: the past-the-shard row needs a partial last word", nb)
	}
	valid := func() *ShardSegment {
		return &ShardSegment{
			Kind:         SegRound,
			Executor:     SyncMatch,
			Visits:       2 * nb,
			GlobalBlocks: 2 * nb, // a two-shard walk: nb more blocks live elsewhere
			Deficits:     map[int]int64{0: 50},
		}
	}
	if _, err := p.RunShardSegment(context.Background(), valid()); err != nil {
		t.Fatalf("valid segment refused: %v", err)
	}
	rows := []struct {
		name, field string
		mutate      func(*ShardSegment)
	}{
		{"executor scan", "executor", func(s *ShardSegment) { s.Executor = Scan }},
		{"executor parallelscan", "executor", func(s *ShardSegment) { s.Executor = ParallelScan }},
		{"executor unknown", "executor", func(s *ShardSegment) { s.Executor = Executor(99) }},
		{"executor on stage1", "executor", func(s *ShardSegment) { s.Kind, s.Executor = SegStage1, Executor(99) }},
		{"cursor negative", "cursor", func(s *ShardSegment) { s.Cursor = -1 }},
		{"cursor past the end", "cursor", func(s *ShardSegment) { s.Cursor = nb + 1 }},
		{"consumed longer than the shard", "consumed", func(s *ShardSegment) { s.Consumed = make([]uint64, words+1) }},
		{"consumed_count overstated", "consumed_count", func(s *ShardSegment) { s.ConsumedCount = nb }},
		{"consumed_count understated", "consumed_count", func(s *ShardSegment) { s.Consumed = []uint64{0b111} }},
		{"consumed_count counts bits past the shard", "consumed_count", func(s *ShardSegment) {
			s.Consumed = make([]uint64, words)
			s.Consumed[words-1] = 1 << 63 // past the block space: nb is no multiple of 64
			s.ConsumedCount = 1
		}},
		{"visits negative", "visits", func(s *ShardSegment) { s.Visits = -1 }},
		{"global_blocks negative", "global_blocks", func(s *ShardSegment) { s.GlobalBlocks = -1 }},
		{"global_blocks below the shard", "global_blocks", func(s *ShardSegment) { s.GlobalBlocks = nb - 1 }},
		{"others_consumed negative", "others_consumed", func(s *ShardSegment) { s.OthersConsumed = -1 }},
		{"others_consumed above the other shards", "others_consumed", func(s *ShardSegment) { s.OthersConsumed = nb + 1 }},
		{"deficit for unknown candidate", "deficits", func(s *ShardSegment) { s.Deficits = map[int]int64{p.NumCandidates(): 1} }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			seg := valid()
			row.mutate(seg)
			res, err := p.RunShardSegment(context.Background(), seg)
			var bad *InvalidSegmentError
			if !errors.As(err, &bad) {
				t.Fatalf("err = %v (result %+v), want *InvalidSegmentError", err, res)
			}
			if bad.Field != row.field {
				t.Fatalf("refused field %q (%v), want %q", bad.Field, err, row.field)
			}
		})
	}
}
