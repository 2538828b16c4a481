package core

import (
	"errors"
	"strings"
	"testing"

	"fastmatch/internal/histogram"
)

// stubSampler lets tests inject pathological sampler behaviour: empty
// batches, errors, or never-exhausting streams.
type stubSampler struct {
	nCand, groups int
	rows          int64
	stage1Err     error
	sampleErr     error
	// emptyBatches makes SampleUntil return batches with no samples and
	// Exhausted=false — a sampler that stalls without ever exhausting.
	emptyBatches bool
	calls        int
}

func (s *stubSampler) NumCandidates() int { return s.nCand }
func (s *stubSampler) Groups() int        { return s.groups }
func (s *stubSampler) TotalRows() int64   { return s.rows }

func (s *stubSampler) batch() *Batch {
	return &Batch{
		Counts: make([]int64, s.nCand),
		Hists:  make([]*histogram.Histogram, s.nCand),
	}
}

func (s *stubSampler) Stage1(m int) (*Batch, error) {
	if s.stage1Err != nil {
		return nil, s.stage1Err
	}
	b := s.batch()
	// Uniform-ish stage-1 sample: every candidate gets m/nCand tuples in
	// group 0.
	per := int64(m / s.nCand)
	for i := 0; i < s.nCand; i++ {
		b.Counts[i] = per
		b.Drawn += per
		h := histogram.New(s.groups)
		for j := int64(0); j < per; j++ {
			h.Add(0)
		}
		b.Hists[i] = h
	}
	return b, nil
}

func (s *stubSampler) SampleUntil(need map[int]int) (*Batch, error) {
	s.calls++
	if s.sampleErr != nil {
		return nil, s.sampleErr
	}
	b := s.batch()
	if s.emptyBatches {
		return b, nil
	}
	for id, n := range need {
		b.Counts[id] = int64(n)
		b.Drawn += int64(n)
		h := histogram.New(s.groups)
		for j := 0; j < n; j++ {
			h.Add(j % s.groups)
		}
		b.Hists[id] = h
	}
	return b, nil
}

func stubParams() Params {
	return Params{
		K: 2, Epsilon: 0.2, Delta: 0.05, Sigma: 0.001,
		Stage1Samples: 1000, Metric: histogram.MetricL1,
	}
}

func TestStage1ErrorPropagates(t *testing.T) {
	s := &stubSampler{nCand: 5, groups: 4, rows: 100000, stage1Err: errors.New("disk on fire")}
	_, err := Run(s, histogram.New(4), stubParams())
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("stage 1 error not propagated: %v", err)
	}
}

func TestStage2ErrorPropagates(t *testing.T) {
	s := &stubSampler{nCand: 5, groups: 4, rows: 100000, sampleErr: errors.New("cable unplugged")}
	_, err := Run(s, histogram.New(4), stubParams())
	if err == nil || !strings.Contains(err.Error(), "cable unplugged") {
		t.Fatalf("stage 2 error not propagated: %v", err)
	}
}

func TestMaxRoundsGuardsStalledSampler(t *testing.T) {
	// A sampler that returns empty, non-exhausted batches forever must
	// trip the MaxRounds guard instead of spinning.
	s := &stubSampler{nCand: 5, groups: 4, rows: 100000, emptyBatches: true}
	p := stubParams()
	p.MaxRounds = 7
	_, err := Run(s, histogram.New(4), p)
	if err == nil || !strings.Contains(err.Error(), "did not terminate") {
		t.Fatalf("stalled sampler not caught: %v", err)
	}
	if s.calls > 7 {
		t.Fatalf("sampler called %d times, cap was 7", s.calls)
	}
}

func TestBatchIsExact(t *testing.T) {
	b := &Batch{}
	if b.IsExact(0) {
		t.Fatal("nil Exact should report false")
	}
	b.Exact = []bool{true, false}
	if !b.IsExact(0) || b.IsExact(1) {
		t.Fatal("IsExact wrong")
	}
}

func TestExactPValue(t *testing.T) {
	if exactPValue(true) != 0 || exactPValue(false) != 1 {
		t.Fatal("exactPValue mapping wrong")
	}
}

func TestNoCandidatesError(t *testing.T) {
	s := &stubSampler{nCand: 0, groups: 4, rows: 100}
	if _, err := Run(s, histogram.New(4), stubParams()); err == nil {
		t.Fatal("zero-candidate sampler accepted")
	}
}
