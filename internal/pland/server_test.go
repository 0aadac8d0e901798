package pland

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// startServer boots a daemon on an ephemeral port and tears it down
// with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		// Concurrent posts can leave the default transport holding a
		// speculative connection that never carried a request; the server
		// sees it as StateNew, which Shutdown counts as busy for 5 s —
		// this cleanup's whole deadline. Drop the client's idle side first.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv
}

// post sends a JSON body and returns the response with its body read.
func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestPlanByteIdenticalHit(t *testing.T) {
	srv := startServer(t, Config{})
	url := "http://" + srv.Addr() + "/v1/plan"

	req := testRequest([][]Extent{
		{{0, 1 << 20}, {4 << 20, 1 << 20}},
		{{1 << 20, 1 << 20}, {5 << 20, 1 << 20}},
	})
	body, _ := json.Marshal(req)

	resp1, plan1 := post(t, url, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first post: %d %s", resp1.StatusCode, plan1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first post X-Cache = %q, want miss", got)
	}
	resp2, plan2 := post(t, url, body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second post: %d X-Cache=%q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(plan1, plan2) {
		t.Fatal("cache hit is not byte-identical to the miss")
	}

	// A semantically identical request spelled differently — extents
	// permuted and split, defaults written out — must hit the same slot
	// and return the same bytes.
	equiv := req
	equiv.Ranks = [][]Extent{
		{{4 << 20, 1 << 20}, {0, 512 << 10}, {512 << 10, 512 << 10}},
		{{5 << 20, 1 << 20}, {1 << 20, 1 << 20}},
	}
	if err := equiv.Cluster.Validate(); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(equiv.Cluster, equiv.FS)
	equiv.Options = &opts
	ebody, _ := json.Marshal(equiv)
	if bytes.Equal(ebody, body) {
		t.Fatal("test bug: equivalent body should be encoded differently")
	}
	resp3, plan3 := post(t, url, ebody)
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("X-Cache") != "hit" {
		t.Fatalf("equivalent post: %d X-Cache=%q body=%s", resp3.StatusCode, resp3.Header.Get("X-Cache"), plan3)
	}
	if !bytes.Equal(plan1, plan3) {
		t.Fatal("equivalent request did not return byte-identical plan")
	}

	var pr PlanResponse
	if err := json.Unmarshal(plan1, &pr); err != nil {
		t.Fatalf("plan response is not valid JSON: %v", err)
	}
	if pr.Ranks != 2 || pr.TotalBytes != 4<<20 || len(pr.Groups) == 0 || pr.Aggregators == 0 {
		t.Fatalf("implausible plan: %+v", pr)
	}
	if pr.Fingerprint == "" {
		t.Fatal("plan has no fingerprint")
	}
}

func TestSimulateEndpoint(t *testing.T) {
	srv := startServer(t, Config{})
	url := "http://" + srv.Addr() + "/v1/simulate"

	req := SimRequest{PlanRequest: testRequest([][]Extent{
		{{0, 1 << 20}},
		{{1 << 20, 1 << 20}},
	}), Op: "write"}
	body, _ := json.Marshal(req)
	resp, data := post(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, data)
	}
	var sr SimResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.BandwidthMBps <= 0 || sr.Elapsed <= 0 || sr.Bytes != 2<<20 {
		t.Fatalf("implausible simulation: %+v", sr)
	}
	if len(sr.Phases) == 0 {
		t.Fatal("simulation reported no phases")
	}
	if sr.Strategy != "mccio" || sr.Op != "write" {
		t.Fatalf("echoed %q/%q", sr.Strategy, sr.Op)
	}

	// The two-phase baseline runs too and reports a single group.
	req.Strategy = "two-phase"
	body, _ = json.Marshal(req)
	resp, data = post(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("two-phase simulate: %d %s", resp.StatusCode, data)
	}
}

func TestBadRequests(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.Addr()

	resp, body := post(t, base+"/v1/plan", []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d %s", resp.StatusCode, body)
	}
	var er struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("error body is not structured: %s", body)
	}

	empty, _ := json.Marshal(testRequest(nil))
	if resp, _ := post(t, base+"/v1/plan", empty); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no ranks: %d", resp.StatusCode)
	}

	neg, _ := json.Marshal(testRequest([][]Extent{{{-4, 16}}}))
	if resp, _ := post(t, base+"/v1/plan", neg); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative extent: %d", resp.StatusCode)
	}

	simBad, _ := json.Marshal(map[string]any{"op": "append"})
	if resp, _ := post(t, base+"/v1/simulate", simBad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad op: %d", resp.StatusCode)
	}

	get, err := http.Get(base + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan: %d", get.StatusCode)
	}

	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hz.StatusCode)
	}
}

// TestOverloadSheds pins the single worker with a test hook and shows
// the daemon answers a second distinct request with 429 + Retry-After
// instead of queueing — and that a cache hit still gets served while
// the worker is busy.
func TestOverloadSheds(t *testing.T) {
	srv := startServer(t, Config{Workers: 1, Queue: -1})
	url := "http://" + srv.Addr() + "/v1/plan"

	// Warm one key so we can prove hits bypass admission later.
	warm, _ := json.Marshal(testRequest([][]Extent{{{0, 64 << 10}}}))
	if resp, body := post(t, url, warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: %d %s", resp.StatusCode, body)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testHooks.planStarted = func() {
		once.Do(func() { close(started) })
		<-release
	}

	slow, _ := json.Marshal(testRequest([][]Extent{{{1 << 30, 64 << 10}}}))
	slowDone := make(chan int, 1)
	go func() {
		resp, _ := post(t, url, slow)
		slowDone <- resp.StatusCode
	}()
	<-started // the only worker is now pinned

	other, _ := json.Marshal(testRequest([][]Extent{{{2 << 30, 64 << 10}}}))
	resp, body := post(t, url, other)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: got %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The warmed key is still served: hits bypass admission control.
	if resp, _ := post(t, url, warm); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm key during overload: %d X-Cache=%q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	close(release)
	if code := <-slowDone; code != http.StatusOK {
		t.Fatalf("pinned request finished %d, want 200", code)
	}

	snap := srv.Registry().Snapshot()
	if v, ok := snap.Get("mccio_pland_shed_total", nil); !ok || v < 1 {
		t.Fatalf("shed counter = %v %v, want >= 1", v, ok)
	}
}

// TestCoalescedShedPropagates shows a coalesced waiter of a shed
// leader also sees the shed error (429), not a hang.
func TestCoalescedShedPropagates(t *testing.T) {
	srv := startServer(t, Config{Workers: 1, Queue: -1})
	url := "http://" + srv.Addr() + "/v1/plan"

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testHooks.planStarted = func() {
		once.Do(func() { close(started) })
		<-release
	}
	defer close(release)

	pin, _ := json.Marshal(testRequest([][]Extent{{{0, 64 << 10}}}))
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(pin))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started

	// Two concurrent requests for the same new key: the leader is shed
	// (no worker, no backlog); the coalesced follower must get the same
	// 429 rather than wait forever.
	same, _ := json.Marshal(testRequest([][]Extent{{{3 << 30, 64 << 10}}}))
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(url, "application/json", bytes.NewReader(same))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case code := <-codes:
			if code != http.StatusTooManyRequests {
				t.Fatalf("concurrent miss under overload: %d, want 429", code)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("coalesced waiter hung on a shed leader")
		}
	}
}

func TestGracefulDrain(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	base := "http://" + srv.Addr()

	req, _ := json.Marshal(testRequest([][]Extent{{{0, 64 << 10}}}))
	if resp, body := post(t, base+"/v1/plan", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain plan: %d %s", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after shutdown")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
	// A second Shutdown is a no-op, not a panic.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestRunLoadAgainstServer(t *testing.T) {
	srv := startServer(t, Config{})
	rep, err := RunLoad(LoadSpec{
		URLs:        []string{"http://" + srv.Addr()},
		Requests:    60,
		Concurrency: 4,
		Keys:        6,
		ZipfS:       1.1,
		SimEvery:    30,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("load saw %d errors", rep.Errors)
	}
	if rep.Hits+rep.Coalesced == 0 {
		t.Fatal("60 Zipf requests over 6 keys produced no cache hits")
	}
	if rep.Simulations == 0 {
		t.Fatal("SimEvery produced no simulations")
	}
	if rep.ThroughputRPS <= 0 || rep.P50Ms <= 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
	if rep.HitRate <= 0 || rep.HitRate >= 1 {
		t.Fatalf("hit rate %v out of (0,1)", rep.HitRate)
	}

	// Server-side counters agree that the planner ran once per key.
	snap := srv.Registry().Snapshot()
	if runs, ok := snap.Get("mccio_pland_planner_runs_total", nil); !ok || runs != 6 {
		t.Fatalf("planner runs = %v %v, want 6 (one per key)", runs, ok)
	}
}

func TestMetricsEndpoints(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.Addr()

	req, _ := json.Marshal(testRequest([][]Extent{{{0, 64 << 10}}}))
	post(t, base+"/v1/plan", req)
	post(t, base+"/v1/plan", req)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "mccio_pland_cache_hits_total 1") {
		t.Fatalf("/metrics missing hit counter:\n%s", text)
	}

	resp, err = http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Get("mccio_pland_requests_total", map[string]string{"endpoint": "plan", "code": "200"}); !ok || v != 2 {
		t.Fatalf("/metrics.json plan 200 count = %v %v, want 2", v, ok)
	}
}
