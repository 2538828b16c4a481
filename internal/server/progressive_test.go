package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"
)

// postStream POSTs to /v1/query/stream and returns the decoded frames.
func postStream(t testing.TB, url string, req QueryRequest) (int, []StreamFrame) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var frames []StreamFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, frames
}

func TestStreamEndpointFramesThenByteIdenticalResult(t *testing.T) {
	_, tbl, ts := newTestServer(t, Config{})
	req := baseRequest(21, "scanmatch")

	status, frames := postStream(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("stream status %d", status)
	}
	if len(frames) < 2 {
		t.Fatalf("want ≥1 progress + 1 result frame, got %d frames", len(frames))
	}
	for i, f := range frames[:len(frames)-1] {
		if f.Type != "progress" {
			t.Fatalf("frame %d has type %q, want progress", i, f.Type)
		}
		if f.Progress == nil {
			t.Fatalf("progress frame %d carries no payload", i)
		}
	}
	if frames[0].Progress.Phase != "start" {
		t.Fatalf("first frame phase %q, want start", frames[0].Progress.Phase)
	}
	sawRound := false
	for _, f := range frames[:len(frames)-1] {
		if f.Progress.Phase == "stage1" || f.Progress.Phase == "stage2" {
			sawRound = true
			if f.Progress.IO.TuplesRead == 0 {
				t.Fatal("round frame reports zero I/O")
			}
		}
	}
	if !sawRound {
		t.Fatal("no HistSim round frames before the result")
	}
	final := frames[len(frames)-1]
	if final.Type != "result" || final.Cached {
		t.Fatalf("terminal frame: %+v, want uncached result", final)
	}

	// Byte-identity three ways: vs a fresh direct engine run, and vs the
	// blocking endpoint (which must now hit the result cache the stream
	// populated).
	direct := directPayload(t, tbl, req)
	if !bytes.Equal(final.Result, direct) {
		t.Fatalf("stream result differs from direct engine run:\n%s\nvs\n%s", final.Result, direct)
	}
	status, reply := postQuery(t, ts.URL, req)
	if status != http.StatusOK || !reply.Cached {
		t.Fatalf("blocking repeat: status %d cached %v, want cached hit of the streamed payload", status, reply.Cached)
	}
	if !bytes.Equal([]byte(reply.Result), final.Result) {
		t.Fatal("blocking endpoint payload differs from streamed result")
	}
}

func TestStreamCachedAnswerKeepsFrameShape(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	req := baseRequest(4, "scanmatch")
	if status, _ := postQuery(t, ts.URL, req); status != http.StatusOK {
		t.Fatal("priming query failed")
	}
	status, frames := postStream(t, ts.URL, req)
	if status != http.StatusOK || len(frames) != 2 {
		t.Fatalf("cached stream: status %d, %d frames, want start+result", status, len(frames))
	}
	if frames[0].Type != "progress" || frames[1].Type != "result" || !frames[1].Cached {
		t.Fatalf("cached stream frames: %+v", frames)
	}
}

// The client-disconnect row of the runner × sink matrix (see
// pipeline_test.go): whichever runner is mid-run, a client that goes away
// cancels it, and the request is accounted as canceled. Each test covers
// one sink — how a client "goes away" differs — over both runners.

// eachRunner runs fn against the single-node control and the coordinator
// of a throttled 3-shard fixture, primed so the run — not cold-start
// planning — is what the client walks away from. Both run an exact scan
// that reads every tuple if left alone: ≥300ms on the single node, and
// ≥100ms on each shard, whose third of the blocks one worker reads (more
// workers would overlap the per-block throttle and finish inside the
// blocking test's 60ms). The coordinated run has all three segment calls
// in flight when its client goes.
func eachRunner(t *testing.T, stream bool, fn func(t *testing.T, url string, req QueryRequest)) {
	for _, c := range []pipelineCell{{false, stream}, {true, stream}} {
		t.Run(c.String(), func(t *testing.T) {
			_, url := newSlowClusterFixture(t, 3, Config{}, time.Millisecond, 0).server(c)
			primeSlow(t, c, url, baseRequest(30, "scan"))
			req := baseRequest(31, "scan")
			req.Options.Workers = intp(1)
			fn(t, url, req)
		})
	}
}

// awaitCanceled waits for the fixture table's canceled counter to tick,
// then holds the coordinator to what a cancellation is: the caller's
// doing, so no shard's error count or health moved.
func awaitCanceled(t *testing.T, url string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		st := getStats(t, url).Tables["fixture"]
		if st.Canceled >= 1 {
			for _, sh := range st.Shards {
				if sh.Errors != 0 || !sh.Healthy {
					t.Fatalf("client disconnect charged to shard %s: %+v", sh.Name, sh)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled counter never ticked: %+v", st)
		}
	}
}

func TestStreamClientDisconnectCancelsScan(t *testing.T) {
	eachRunner(t, true, func(t *testing.T, url string, req QueryRequest) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/query/stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(httpReq)
		if err != nil {
			t.Fatal(err)
		}
		// Read the first frame (the run is now in flight), then vanish.
		br := bufio.NewReader(resp.Body)
		if _, err := br.ReadBytes('\n'); err != nil {
			t.Fatal(err)
		}
		cancel()
		resp.Body.Close()

		// The canceled counter must tick, and the aborted scan's I/O must
		// stop growing (the priming run read the table once in full).
		awaitCanceled(t, url)
		io1 := getStats(t, url).Tables["fixture"].IO.TuplesRead
		time.Sleep(150 * time.Millisecond)
		io2 := getStats(t, url).Tables["fixture"].IO.TuplesRead
		if io1 != io2 {
			t.Fatalf("IOStats still growing after cancellation: %d -> %d", io1, io2)
		}
		if full := int64(2 * 20_000); io1 >= full {
			t.Fatalf("scan ran to completion (%d tuples with priming) despite disconnect", io1)
		}
	})
}

func TestBlockingClientDisconnectCancelsScan(t *testing.T) {
	eachRunner(t, false, func(t *testing.T, url string, req QueryRequest) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
		defer cancel()
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := http.DefaultClient.Do(httpReq); err == nil {
			resp.Body.Close()
			t.Fatal("request should have been abandoned by its context")
		}
		awaitCanceled(t, url)
	})
}

func TestAdmissionQueueAbandonedOnDisconnect(t *testing.T) {
	s, _, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxWait: 10 * time.Second})
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookRunning = func() {
		once.Do(func() {
			close(parked)
			<-release
		})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		postQuery(t, ts.URL, baseRequest(41, "scanmatch"))
	}()
	<-parked // first request holds the only slot

	// Second request queues for admission, then its client gives up.
	body, err := json.Marshal(baseRequest(42, "scanmatch"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(httpReq); err == nil {
		// The server may get the 499 out before the transport aborts.
		if resp.StatusCode != statusClientClosedRequest {
			t.Fatalf("abandoned request answered %d, want %d", resp.StatusCode, statusClientClosedRequest)
		}
		resp.Body.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := getStats(t, ts.URL)
		if st.Admission.Canceled >= 1 && st.Tables["fixture"].Canceled >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandonment not accounted: admission %+v, table %+v", st.Admission, st.Tables["fixture"])
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := getStats(t, ts.URL); st.Admission.Rejected != 0 {
		t.Fatalf("client disconnect was misfiled as a capacity rejection: %+v", st.Admission)
	}
	close(release)
	<-done
	// The parked request's slot was never stolen by the abandoned one.
	if st := getStats(t, ts.URL); st.Admission.InFlight != 0 {
		t.Fatalf("slot leaked: %+v", st.Admission)
	}
}
