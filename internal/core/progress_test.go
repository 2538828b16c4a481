package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"fastmatch/internal/histogram"
)

// interruptingSampler wraps a SliceSampler and, starting at the Nth
// sampler call, returns the real batch together with an error wrapping
// ErrInterrupted — the contract a cancellation-aware sampler follows.
type interruptingSampler struct {
	*SliceSampler
	after int
	calls int
}

var errTestCause = errors.New("test cause")

func (s *interruptingSampler) maybe(batch *Batch, err error) (*Batch, error) {
	s.calls++
	if err == nil && s.calls >= s.after {
		return batch, fmt.Errorf("%w (%w)", errTestCause, ErrInterrupted)
	}
	return batch, err
}

func (s *interruptingSampler) Stage1(m int) (*Batch, error) {
	return s.maybe(s.SliceSampler.Stage1(m))
}

func (s *interruptingSampler) SampleUntil(need map[int]int) (*Batch, error) {
	return s.maybe(s.SliceSampler.SampleUntil(need))
}

func TestInterruptedRunSalvagesPartialResult(t *testing.T) {
	pop := makePopulation(t, 7, 200_000, 12, 6, 0)
	params := defaultParams()
	params.Stage1Samples = 5_000
	// k = 6 matches the six candidates mixed near the target's prototype,
	// so stage 2 separates them without reading the table and stage 3
	// tops them up: the uninterrupted run makes at least three sampler
	// calls, and every case below interrupts a real one.
	params.K = 6
	full := &interruptingSampler{SliceSampler: pop.sampler(t, 3), after: math.MaxInt}
	if _, err := Run(full, pop.targets, params); err != nil {
		t.Fatal(err)
	}
	if full.calls < 3 {
		t.Fatalf("uninterrupted run made %d sampler calls, the cases need ≥ 3", full.calls)
	}

	for _, after := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("after-call-%d", after), func(t *testing.T) {
			s := &interruptingSampler{SliceSampler: pop.sampler(t, 3), after: after}
			res, err := Run(s, pop.targets, params)
			if !errors.Is(err, ErrInterrupted) || !errors.Is(err, errTestCause) {
				t.Fatalf("want wrapped ErrInterrupted + cause, got %v", err)
			}
			if res == nil {
				t.Fatal("interrupted run returned no partial result")
			}
			if !res.Partial {
				t.Fatal("salvaged result not flagged Partial")
			}
			if len(res.TopK) != params.K {
				t.Fatalf("partial TopK has %d entries, want %d", len(res.TopK), params.K)
			}
			for _, rk := range res.TopK {
				if res.Hists[rk.ID] == nil {
					t.Fatalf("no snapshot histogram for partial match %d", rk.ID)
				}
			}
			// The interrupted batch's samples must have been folded in.
			if after >= 1 && res.Stats.TotalSamples() == 0 {
				t.Fatal("interrupted batch was dropped, not accumulated")
			}
		})
	}
}

// sparseInterruptSampler interrupts immediately, having delivered
// samples for only candidate 0 — the partial answer must not rank the
// never-observed candidates (whose empty estimates normalize to
// uniform, i.e. distance 0 from a uniform target).
type sparseInterruptSampler struct{ *SliceSampler }

func (s *sparseInterruptSampler) Stage1(int) (*Batch, error) {
	b := &Batch{
		Counts: make([]int64, s.NumCandidates()),
		Hists:  make([]*histogram.Histogram, s.NumCandidates()),
		Drawn:  10,
	}
	b.Counts[0] = 10
	b.Hists[0] = histogram.New(s.Groups())
	for g := 0; g < s.Groups(); g++ {
		b.Hists[0].Add(g % s.Groups())
	}
	return b, fmt.Errorf("stopped (%w)", ErrInterrupted)
}

func TestSalvageRanksOnlyObservedCandidates(t *testing.T) {
	pop := makePopulation(t, 7, 50_000, 10, 5, 0)
	params := defaultParams()
	s := &sparseInterruptSampler{SliceSampler: pop.sampler(t, 3)}
	res, err := Run(s, pop.targets, params)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if len(res.TopK) != 1 || res.TopK[0].ID != 0 {
		t.Fatalf("partial TopK should hold only the observed candidate 0, got %+v", res.TopK)
	}
}

func TestNonInterruptErrorStillReturnsNilResult(t *testing.T) {
	pop := makePopulation(t, 7, 50_000, 8, 5, 0)
	s := &failingSampler{SliceSampler: pop.sampler(t, 3)}
	res, err := Run(s, pop.targets, defaultParams())
	if err == nil || res != nil {
		t.Fatalf("plain sampler failure: res=%v err=%v, want nil result + error", res, err)
	}
}

type failingSampler struct{ *SliceSampler }

func (s *failingSampler) Stage1(int) (*Batch, error) {
	return nil, errors.New("disk on fire")
}

func TestObserverSequenceIsDeterministic(t *testing.T) {
	pop := makePopulation(t, 5, 300_000, 10, 6, 0.2)
	params := defaultParams()
	params.Stage1Samples = 8_000

	collect := func() []Snapshot {
		var got []Snapshot
		res, err := RunObserved(pop.sampler(t, 9), pop.targets, params, func(s Snapshot) {
			got = append(got, s)
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial {
			t.Fatal("uninterrupted run flagged Partial")
		}
		return got
	}

	a, b := collect(), collect()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("observer sequences diverge across identical runs:\n%v\nvs\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no snapshots emitted")
	}
	if a[0].Phase != "stage1" {
		t.Fatalf("first snapshot phase %q, want stage1", a[0].Phase)
	}
	lastDrawn, round := int64(-1), 0
	for i, s := range a {
		if s.Drawn < lastDrawn {
			t.Fatalf("snapshot %d: drawn count went backwards (%d -> %d)", i, lastDrawn, s.Drawn)
		}
		lastDrawn = s.Drawn
		if s.Phase == "stage2" {
			if s.Round != round+1 {
				t.Fatalf("snapshot %d: round %d after round %d", i, s.Round, round)
			}
			round = s.Round
		}
		if len(s.TopK) == 0 {
			t.Fatalf("snapshot %d carries no interim top-k", i)
		}
	}
}

func TestNilObserverUnchangedResult(t *testing.T) {
	pop := makePopulation(t, 6, 200_000, 10, 6, 0.2)
	params := defaultParams()
	params.Stage1Samples = 8_000
	plain, err := Run(pop.sampler(t, 4), pop.targets, params)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := RunObserved(pop.sampler(t, 4), pop.targets, params, func(Snapshot) {})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatal("observer changed the run's result")
	}
}
