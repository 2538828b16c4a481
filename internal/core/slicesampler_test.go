package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fastmatch/internal/histogram"
)

func TestNewSliceSamplerValidation(t *testing.T) {
	if _, err := NewSliceSampler([]uint32{0}, []uint32{0, 1}, 1, 2, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewSliceSampler([]uint32{0}, []uint32{0}, 0, 2, nil); err == nil {
		t.Fatal("zero candidates accepted")
	}
	if _, err := NewSliceSampler([]uint32{5}, []uint32{0}, 2, 2, nil); err == nil {
		t.Fatal("out-of-range z code accepted")
	}
	if _, err := NewSliceSampler([]uint32{0}, []uint32{5}, 2, 2, nil); err == nil {
		t.Fatal("out-of-range x code accepted")
	}
}

func TestSliceSamplerStage1(t *testing.T) {
	z := []uint32{0, 1, 0, 1, 0}
	x := []uint32{0, 1, 1, 0, 0}
	s, err := NewSliceSampler(z, x, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Stage1(3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Counts[0]+b.Counts[1] != 3 {
		t.Fatalf("stage1 batch size %d, want 3", b.Counts[0]+b.Counts[1])
	}
	if b.Exhausted {
		t.Fatal("not exhausted after 3 of 5")
	}
	b2, _ := s.Stage1(10)
	if !b2.Exhausted {
		t.Fatal("should be exhausted")
	}
	if b2.Counts[0]+b2.Counts[1] != 2 {
		t.Fatalf("second batch size %d, want 2", b2.Counts[0]+b2.Counts[1])
	}
}

func TestSliceSamplerSampleUntil(t *testing.T) {
	n := 1000
	z := make([]uint32, n)
	x := make([]uint32, n)
	for i := range z {
		z[i] = uint32(i % 4)
		x[i] = uint32(i % 3)
	}
	seed := int64(5)
	s, err := NewSliceSampler(z, x, 4, 3, &seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SampleUntil(map[int]int{1: 20, 3: 10})
	if err != nil {
		t.Fatal(err)
	}
	if b.Counts[1] < 20 || b.Counts[3] < 10 {
		t.Fatalf("needs unmet: %v", b.Counts)
	}
	if b.Exhausted {
		t.Fatal("should not exhaust for small needs")
	}
	if _, err := s.SampleUntil(map[int]int{99: 1}); err == nil {
		t.Fatal("unknown candidate accepted")
	}
}

func TestSliceSamplerExhaustsOnImpossibleNeed(t *testing.T) {
	z := []uint32{0, 0, 1}
	x := []uint32{0, 1, 0}
	s, _ := NewSliceSampler(z, x, 2, 2, nil)
	b, err := s.SampleUntil(map[int]int{1: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Exhausted {
		t.Fatal("should exhaust when need exceeds data")
	}
	if b.Counts[1] != 1 {
		t.Fatalf("candidate 1 count %d, want 1", b.Counts[1])
	}
}

// Property: batches across calls are disjoint and together reproduce the
// exact histograms once exhausted.
func TestSliceSamplerBatchesPartitionData(t *testing.T) {
	f := func(seed int64, n16 uint16) bool {
		n := int(n16%800) + 10
		rng := rand.New(rand.NewSource(seed))
		z := make([]uint32, n)
		x := make([]uint32, n)
		for i := range z {
			z[i] = uint32(rng.Intn(5))
			x[i] = uint32(rng.Intn(4))
		}
		shuffleSeed := seed + 1
		s, err := NewSliceSampler(z, x, 5, 4, &shuffleSeed)
		if err != nil {
			return false
		}
		exact := s.ExactHistograms()
		acc := make([]int64, 5)
		accHist := make([][]float64, 5)
		for i := range accHist {
			accHist[i] = make([]float64, 4)
		}
		for !func() bool {
			b, err := s.Stage1(rng.Intn(50) + 1)
			if err != nil {
				return true
			}
			for i, c := range b.Counts {
				acc[i] += c
				if b.Hists[i] != nil {
					for g := 0; g < 4; g++ {
						accHist[i][g] += b.Hists[i].Count(g)
					}
				}
			}
			return b.Exhausted
		}() {
		}
		for i := 0; i < 5; i++ {
			if float64(acc[i]) != exact[i].Total() {
				return false
			}
			for g := 0; g < 4; g++ {
				if accHist[i][g] != exact[i].Count(g) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceSamplerShuffleUniformity(t *testing.T) {
	// The first half of a shuffled sampler should contain roughly half of
	// each candidate's tuples (within generous bounds).
	n := 40_000
	z := make([]uint32, n)
	x := make([]uint32, n)
	for i := range z {
		z[i] = uint32(i % 8)
	}
	seed := int64(21)
	s, _ := NewSliceSampler(z, x, 8, 1, &seed)
	b, err := s.Stage1(n / 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		frac := float64(b.Counts[i]) / float64(n/8)
		if frac < 0.4 || frac > 0.6 {
			t.Fatalf("candidate %d got %.2f of its tuples in the first half", i, frac)
		}
	}
}

// SliceSampler is the reference Sampler: an in-memory list of (candidate,
// group) tuples consumed sequentially after an upfront shuffle, so every
// prefix is a uniform sample without replacement. The FastMatch engine
// supersedes it for block-based I/O; SliceSampler remains the simplest
// correct implementation, which this package's tests run HistSim over.
type SliceSampler struct {
	z, x   []uint32
	nCand  int
	groups int
	pos    int
}

// NewSliceSampler builds a sampler over parallel candidate/group code
// slices. If shuffleSeed is non-nil the tuples are permuted first; pass
// nil only when the data is already randomly ordered.
func NewSliceSampler(z, x []uint32, nCand, groups int, shuffleSeed *int64) (*SliceSampler, error) {
	if len(z) != len(x) {
		return nil, fmt.Errorf("core: z/x length mismatch %d vs %d", len(z), len(x))
	}
	if nCand <= 0 || groups <= 0 {
		return nil, fmt.Errorf("core: invalid cardinalities nCand=%d groups=%d", nCand, groups)
	}
	for i := range z {
		if int(z[i]) >= nCand {
			return nil, fmt.Errorf("core: z code %d out of range at row %d", z[i], i)
		}
		if int(x[i]) >= groups {
			return nil, fmt.Errorf("core: x code %d out of range at row %d", x[i], i)
		}
	}
	s := &SliceSampler{
		z: append([]uint32(nil), z...), x: append([]uint32(nil), x...),
		nCand: nCand, groups: groups,
	}
	if shuffleSeed != nil {
		rng := rand.New(rand.NewSource(*shuffleSeed))
		rng.Shuffle(len(s.z), func(i, j int) {
			s.z[i], s.z[j] = s.z[j], s.z[i]
			s.x[i], s.x[j] = s.x[j], s.x[i]
		})
	}
	return s, nil
}

// NumCandidates implements Sampler.
func (s *SliceSampler) NumCandidates() int { return s.nCand }

// Groups implements Sampler.
func (s *SliceSampler) Groups() int { return s.groups }

// TotalRows implements Sampler.
func (s *SliceSampler) TotalRows() int64 { return int64(len(s.z)) }

// Consumed returns the number of tuples read so far.
func (s *SliceSampler) Consumed() int { return s.pos }

// Stage1 implements Sampler by reading the next m tuples.
func (s *SliceSampler) Stage1(m int) (*Batch, error) {
	batch := s.newBatch()
	for taken := 0; taken < m && s.pos < len(s.z); taken++ {
		s.take(batch)
	}
	batch.Exhausted = s.pos >= len(s.z)
	return batch, nil
}

// SampleUntil implements Sampler by reading tuples until every needed
// candidate has its quota of fresh samples.
func (s *SliceSampler) SampleUntil(need map[int]int) (*Batch, error) {
	batch := s.newBatch()
	remaining := 0
	deficit := make(map[int]int, len(need))
	for id, n := range need {
		if id < 0 || id >= s.nCand {
			return nil, fmt.Errorf("core: need for unknown candidate %d", id)
		}
		if n > 0 {
			deficit[id] = n
			remaining++
		}
	}
	for remaining > 0 && s.pos < len(s.z) {
		zi := int(s.z[s.pos])
		s.take(batch)
		if d, ok := deficit[zi]; ok {
			if d == 1 {
				delete(deficit, zi)
				remaining--
			} else {
				deficit[zi] = d - 1
			}
		}
	}
	batch.Exhausted = s.pos >= len(s.z)
	return batch, nil
}

func (s *SliceSampler) newBatch() *Batch {
	return &Batch{
		Counts: make([]int64, s.nCand),
		Hists:  make([]*histogram.Histogram, s.nCand),
	}
}

func (s *SliceSampler) take(batch *Batch) {
	zi, xi := int(s.z[s.pos]), int(s.x[s.pos])
	s.pos++
	batch.Drawn++
	if batch.Hists[zi] == nil {
		batch.Hists[zi] = histogram.New(s.groups)
	}
	batch.Hists[zi].Add(xi)
	batch.Counts[zi]++
}

// ExactHistograms scans the full data (independent of sampler position)
// and returns the exact per-candidate histograms — the ground truth r*_i
// used by tests and by target construction.
func (s *SliceSampler) ExactHistograms() []*histogram.Histogram {
	out := make([]*histogram.Histogram, s.nCand)
	for i := range out {
		out[i] = histogram.New(s.groups)
	}
	for i := range s.z {
		out[s.z[i]].Add(int(s.x[i]))
	}
	return out
}
