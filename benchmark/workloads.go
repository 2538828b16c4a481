package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"fastmatch/internal/server"
)

// Every workload issues the paper's FLIGHTS-q1/q2 shape (see
// internal/expt/queries.go): candidates are origins, groups are
// departure hours, k=10, and the target is another origin's histogram
// ("find origins like this one").
const (
	queryZ     = "Origin"
	queryX     = "DepartureHour"
	queryK     = 10
	tableName  = "flights"
	appendRows = 1000 // rows per append batch, datagen -stream's default
)

// workload is one named traffic mix against one daemon topology.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// repeats it; the README expands it).
	why  string
	rows int // dataset rows at full scale
	// topology is "single" (one daemon over a snapshot), "cluster3"
	// (three shard daemons and a coordinator) or "ingest" (one daemon
	// over a live table preloaded through the append endpoint).
	topology string
	backend  string // single only: mmap or inmem
	// executor, epsilon and delta override the daemon defaults
	// (fastmatch, 0.04, 0.01) when set.
	executor       string
	epsilon, delta float64
	clients        int // closed-loop query clients
	// hotPool > 0 makes 9 requests in 10 cycle a fixed pool of that many
	// distinct requests (result-cache hits); the tenth is fresh.
	hotPool int
	// appendRate > 0 runs an open-loop appender at that many batches of
	// appendRows rows per second next to the query client.
	appendRate int
}

var workloads = []workload{
	{
		name: "scan-20m", rows: 20_000_000, topology: "single", backend: "mmap",
		executor: "parallelscan", clients: 1,
		why: "exact parallelscan over a 20M-row mmap snapshot: colstore block reads and engine scan kernels only; sampler, caches, cluster and ingest idle",
	},
	{
		name: "sample-20m", rows: 20_000_000, topology: "single", backend: "mmap",
		epsilon: 0.1, delta: 0.01, clients: 1,
		why: "same daemon and request stream as scan-20m under fastmatch at eps=0.1: planner walk, AnyActive probes, chunk barriers and HistSim rounds dominate",
	},
	{
		name: "cluster3-20m", rows: 20_000_000, topology: "cluster3",
		epsilon: 0.1, delta: 0.01, clients: 1,
		why: "same stream as sample-20m through a coordinator and 3 shard daemons: adds the serial segment chain, wire envelopes and Batch.Merge to identical engine work",
	},
	{
		name: "serve-hot-1m", rows: 1_000_000, topology: "single", backend: "inmem",
		clients: 2, hotPool: 512,
		why: "2 clients, 90% of requests from a 512-entry pool that fits the result cache: HTTP decode, fingerprints, caches, admission and JSON encode dominate",
	},
	{
		name: "ingest-mixed", rows: 1_000_000, topology: "ingest",
		clients: 1, appendRate: 20,
		why: "queries race an open-loop appender (20 x 1000-row batches/s) on a live table: every append bumps the generation, so queries re-plan and stitch segments",
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// request is one generated query: the encoded body the daemon sees and
// the fields the oracle needs to re-run it in process.
type request struct {
	body   []byte
	target string
	seed   int64
	fresh  bool // not from the hot pool: must miss the result cache
}

// mix64 is splitmix64's finalizer: it spreads nearby seeds apart.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream generates a workload's request sequence from a seed. The
// sequence of targets and option seeds depends only on (seed, salt), not
// on the workload, so scan-20m, sample-20m and cluster3-20m see the same
// requests under different options. Not safe for concurrent use.
type stream struct {
	w          *workload
	candidates []string
	rng        *rand.Rand
	order      []int // shuffled candidate indexes, drawn without replacement
	pos        int
	seedBase   int64
	issued     int64
	pool       []request
	poolPos    int
	freshSlot  int // which request of the current block of ten is fresh
}

// newStream starts the request stream of w over the given candidate
// labels. salt separates independent streams of one run (the measured
// stream and the traced-replay prefix must not share option seeds, or
// the replay would hit the result cache).
func newStream(w *workload, candidates []string, seed int64, salt uint64) *stream {
	h := mix64(uint64(seed) ^ mix64(salt))
	s := &stream{
		w:          w,
		candidates: candidates,
		rng:        rand.New(rand.NewSource(int64(h >> 1))),
		// Option seeds stay below 2^52 so any JSON tooling reads them back
		// exactly; 2^32 of headroom separates pool seeds from fresh ones.
		seedBase: int64(mix64(h) % (1 << 51)),
	}
	for i := 0; i < w.hotPool; i++ {
		s.pool = append(s.pool, s.build(s.nextTarget(), s.seedBase+int64(i), false))
	}
	return s
}

// nextTarget draws candidates without replacement, reshuffling when the
// set is exhausted: every pass over the pool covers each target once.
func (s *stream) nextTarget() string {
	if s.pos == len(s.order) {
		s.order = s.rng.Perm(len(s.candidates))
		s.pos = 0
	}
	s.pos++
	return s.candidates[s.order[s.pos-1]]
}

// passDone reports whether the next fresh target starts a new pass over
// the pool.
func (s *stream) passDone() bool { return s.pos == len(s.order) }

func (s *stream) build(target string, seed int64, fresh bool) request {
	k := queryK
	opts := &server.OptionsSpec{K: &k, Executor: s.w.executor, Seed: &seed}
	if s.w.epsilon > 0 {
		opts.Epsilon, opts.Delta = &s.w.epsilon, &s.w.delta
	}
	body, err := json.Marshal(server.QueryRequest{
		Table:   tableName,
		Query:   server.QuerySpec{Z: queryZ, X: []string{queryX}},
		Target:  server.TargetSpec{Candidate: target},
		Options: opts,
	})
	if err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
	return request{body: body, target: target, seed: seed, fresh: fresh}
}

// next returns the stream's next request.
func (s *stream) next() request {
	i := s.issued
	s.issued++
	if len(s.pool) > 0 {
		if i%10 == 0 {
			s.freshSlot = s.rng.Intn(10)
		}
		if int(i%10) != s.freshSlot {
			r := s.pool[s.poolPos]
			s.poolPos = (s.poolPos + 1) % len(s.pool)
			return r
		}
	}
	return s.build(s.nextTarget(), s.seedBase+1<<32+i, true)
}

// appendOffsets returns the first row of each of n append batches: a
// batch is appendRows consecutive rows of the pool table, starting at a
// seeded offset.
func appendOffsets(seed int64, n, poolRows int) []int {
	rng := rand.New(rand.NewSource(int64(mix64(uint64(seed)^0xa99e4d) >> 1)))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(poolRows - appendRows + 1)
	}
	return out
}
