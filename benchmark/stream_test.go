package main

import (
	"bytes"
	"fmt"
	"testing"
)

func testTargets() []string {
	out := make([]string, targetPool)
	for i := range out {
		out[i] = fmt.Sprintf("Origin_%d", i*23)
	}
	return out
}

func first(w *workload, seed int64, salt uint64, n int) []request {
	s := newStream(w, testTargets(), seed, salt)
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestStreamsAreReproducible(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := first(w, 42, 0, 1000), first(w, 42, 0, 1000)
		other, salted := first(w, 43, 0, 1000), first(w, 42, 1, 1000)
		differs, sharesSeed := false, false
		for j := range a {
			if !bytes.Equal(a[j].body, b[j].body) {
				t.Fatalf("%s: request %d differs between two streams of seed 42:\n%s\n%s", w.name, j, a[j].body, b[j].body)
			}
			differs = differs || !bytes.Equal(a[j].body, other[j].body)
			sharesSeed = sharesSeed || a[j].seed == salted[j].seed
		}
		if !differs {
			t.Errorf("%s: seeds 42 and 43 generate the same 1000 requests", w.name)
		}
		if sharesSeed {
			t.Errorf("%s: the salted stream reuses an option seed of the main stream at the same position", w.name)
		}
	}
}

// scan-20m, sample-20m and cluster3-20m must see the same targets and
// option seeds, so a difference between them is the executor's or the
// cluster's, never the request mix's.
func TestTwentyMillionWorkloadsShareOneStream(t *testing.T) {
	scan, _ := workloadByName("scan-20m")
	sample, _ := workloadByName("sample-20m")
	clus, _ := workloadByName("cluster3-20m")
	a, b, c := first(scan, 7, 0, 200), first(sample, 7, 0, 200), first(clus, 7, 0, 200)
	for i := range a {
		if a[i].target != b[i].target || a[i].seed != b[i].seed {
			t.Fatalf("request %d: scan has (%s, %d), sample has (%s, %d)", i, a[i].target, a[i].seed, b[i].target, b[i].seed)
		}
		if !bytes.Equal(b[i].body, c[i].body) {
			t.Fatalf("request %d: sample-20m and cluster3-20m bodies differ", i)
		}
	}
	if bytes.Equal(a[0].body, b[0].body) {
		t.Fatal("scan-20m and sample-20m send identical bodies: the executor option is missing")
	}
}

func TestEveryPassCoversEachTargetOnce(t *testing.T) {
	w, _ := workloadByName("sample-20m")
	s := newStream(w, testTargets(), 3, 0)
	for pass := 0; pass < 5; pass++ {
		seen := map[string]bool{}
		for i := 0; i < targetPool; i++ {
			if i > 0 && s.passDone() {
				t.Fatalf("pass %d reported done after %d of %d targets", pass, i, targetPool)
			}
			seen[s.next().target] = true
		}
		if len(seen) != targetPool || !s.passDone() {
			t.Fatalf("pass %d covered %d distinct targets (want %d), done=%v", pass, len(seen), targetPool, s.passDone())
		}
	}
}

func TestHotMixIsExactlyNineInTen(t *testing.T) {
	w, _ := workloadByName("serve-hot-1m")
	s := newStream(w, testTargets(), 11, 0)
	if len(s.pool) != 512 {
		t.Fatalf("hot pool has %d requests, want 512", len(s.pool))
	}
	distinct := map[string]bool{}
	for _, r := range s.pool {
		distinct[string(r.body)] = true
	}
	if len(distinct) != 512 {
		t.Fatalf("hot pool has %d distinct requests, want 512", len(distinct))
	}
	hot := 0
	freshSeeds := map[int64]bool{}
	for block := 0; block < 100; block++ {
		fresh := 0
		for i := 0; i < 10; i++ {
			r := s.next()
			if r.fresh {
				fresh++
				if distinct[string(r.body)] || freshSeeds[r.seed] {
					t.Fatalf("fresh request repeats an earlier one: %s", r.body)
				}
				freshSeeds[r.seed] = true
				continue
			}
			if want := s.pool[hot%512]; !bytes.Equal(r.body, want.body) {
				t.Fatalf("hot request %d is not pool entry %d", hot, hot%512)
			}
			hot++
		}
		if fresh != 1 {
			t.Fatalf("block %d has %d fresh requests, want exactly 1", block, fresh)
		}
	}
}

func TestAppendOffsets(t *testing.T) {
	a, b := appendOffsets(5, 300, 50_000), appendOffsets(5, 300, 50_000)
	c := appendOffsets(6, 300, 50_000)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offset %d differs between two schedules of seed 5", i)
		}
		if a[i] < 0 || a[i]+appendRows > 50_000 {
			t.Fatalf("offset %d = %d leaves the pool table", i, a[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("seeds 5 and 6 give the same append schedule")
	}
}
