package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// BenchmarkClusterQuery prices the scatter-gather layer: the same cold
// query stream (fresh seed each iteration, so the result cache always
// misses) against a single node and against coordinators fanning out
// over 2 and 3 shard daemons, all over real HTTP so the comparison
// includes what coordination actually adds — shard round-trips and the
// partial fold — not just handler overhead. The coordinators answer the
// scanmatch stream with their exact scatter-gather scan; the single node
// samples.
func BenchmarkClusterQuery(b *testing.B) {
	post := func(b *testing.B, url string, seed int64) {
		b.Helper()
		lookahead := 8
		req := QueryRequest{
			Table:   "fixture",
			Query:   QuerySpec{Z: "Z", X: []string{"X"}},
			Target:  TargetSpec{Uniform: true},
			Options: &OptionsSpec{Executor: "scanmatch", Seed: &seed, Lookahead: &lookahead},
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.Run("SingleNode", func(b *testing.B) {
		fx := newClusterFixture(b, 2, Config{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, fx.single.URL, int64(i))
		}
	})
	for _, shards := range []int{2, 3} {
		b.Run(fmt.Sprintf("Coordinated/shards=%d", shards), func(b *testing.B) {
			fx := newClusterFixture(b, shards, Config{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, fx.coordTS.URL, int64(i))
			}
		})
	}
}
