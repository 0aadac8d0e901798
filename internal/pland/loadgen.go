package pland

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/pfs"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// LoadSpec drives RunLoad: a closed-loop load generator where
// Concurrency clients each issue requests back-to-back. The first Keys
// requests sweep every layout once (a deterministic warm pass); after
// that, which layout to ask for is drawn from a Zipf(ZipfS) popularity
// distribution — the skew that makes a plan cache worth having.
type LoadSpec struct {
	// URLs are the daemons' base URLs, e.g. "http://127.0.0.1:9100";
	// at least one is required. Two or more switch the generator to
	// cluster mode: request i goes to URLs[i % len(URLs)] — a
	// deterministic round-robin spray across the ring, the access
	// pattern of clients behind a dumb load balancer — and the report
	// gains a per-shard breakdown.
	URLs []string
	// Requests is the total request count; <= 0 means 200.
	Requests int
	// Concurrency is the closed-loop client count; <= 0 means 8.
	Concurrency int
	// Keys is the number of distinct request layouts; <= 0 means 32.
	Keys int
	// ZipfS is the popularity skew (0 = uniform); < 0 means 1.1.
	ZipfS float64
	// Ranks is the per-request rank count; <= 0 means 16.
	Ranks int
	// SimEvery routes every Nth request to /v1/simulate instead of
	// /v1/plan; 0 means plans only.
	SimEvery int
	// Seed derives each client's RNG; 0 means 1.
	Seed uint64
}

// loadNodes sizes the platform of every generated request.
const loadNodes = 4

// LoadReport is RunLoad's result: one client's tally against one
// shard, one shard's row, and the whole run are all a LoadReport. The
// JSON field names are part of the CI contract: the serve-smoke job
// asserts on them with jq.
type LoadReport struct {
	// URL is a shard row's base URL; empty on the whole-run report.
	URL         string `json:"url,omitempty"`
	Requests    int    `json:"requests"`
	Errors      int    `json:"errors"`
	Shed        int    `json:"shed"`
	Hits        int    `json:"hits"`
	Misses      int    `json:"misses"`
	Coalesced   int    `json:"coalesced"`
	Simulations int    `json:"simulations"`
	// Cluster-mode verdicts, zero against a single node: ReplicaHits
	// are plans served from a non-owner shard's local copy,
	// ForwardHits/ForwardMisses took the internal hop to the owner
	// (who had / had not the plan cached), and Forwarded is their sum.
	ReplicaHits   int `json:"replica_hits"`
	ForwardHits   int `json:"forward_hits"`
	ForwardMisses int `json:"forward_misses"`
	Forwarded     int `json:"forwarded"`
	// ElapsedS is the wall-clock run duration in seconds.
	ElapsedS float64 `json:"elapsed_s"`
	// ThroughputRPS is completed requests per wall-clock second.
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency percentiles over all completed requests, milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// HitRate is the fraction of plan lookups that did not run the
	// planner anywhere in the cluster: every verdict but a miss and a
	// forward-miss.
	HitRate float64 `json:"hit_rate"`
	// StatusCounts tallies responses by HTTP status code ("200",
	// "429", ...); transport failures that never got a status count
	// under "net".
	StatusCounts map[string]int `json:"status_counts"`
	// ErrorRate is the fraction of requests that did not return 2xx —
	// sheds, client/server errors, and transport failures combined.
	ErrorRate float64 `json:"error_rate"`
	// Shards is the per-endpoint breakdown, present only in cluster
	// mode (two or more URLs), ordered as the URLs were given.
	Shards []LoadReport `json:"shards,omitempty"`

	latencies []float64 // seconds, of the completed requests
}

// withDefaults fills the spec's zero values.
func (s LoadSpec) withDefaults() LoadSpec {
	if s.Requests <= 0 {
		s.Requests = 200
	}
	if s.Concurrency <= 0 {
		s.Concurrency = 8
	}
	if s.Keys <= 0 {
		s.Keys = 32
	}
	if s.ZipfS < 0 {
		s.ZipfS = 1.1
	}
	if s.Ranks <= 0 {
		s.Ranks = 16
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// loadBodies precomputes one plan body and one simulate body per key.
// Key k's layout is an IOR-style interleave whose block size depends on
// k, so distinct keys fingerprint distinctly while every body stays
// cheap to plan.
func loadBodies(s LoadSpec) (plan, sim [][]byte, err error) {
	mc := cluster.TestbedConfig(loadNodes)
	mc.MemPerNode = 64 * cluster.MiB
	fc := pfs.DefaultConfig()
	if s.Ranks > loadNodes*mc.CoresPerNode {
		return nil, nil, fmt.Errorf("pland: %d ranks exceed the %d-node machine", s.Ranks, loadNodes)
	}
	plan = make([][]byte, s.Keys)
	sim = make([][]byte, s.Keys)
	for k := 0; k < s.Keys; k++ {
		block := int64(64<<10 + k*4096)
		ranks := make([][]Extent, s.Ranks)
		for i := range ranks {
			for seg := int64(0); seg < 2; seg++ {
				off := (seg*int64(s.Ranks) + int64(i)) * block
				ranks[i] = append(ranks[i], Extent{Off: off, Len: block})
			}
		}
		req := PlanRequest{Cluster: mc, FS: fc, Ranks: ranks}
		if plan[k], err = json.Marshal(req); err != nil {
			return nil, nil, err
		}
		if sim[k], err = json.Marshal(SimRequest{PlanRequest: req, Op: "write"}); err != nil {
			return nil, nil, err
		}
	}
	return plan, sim, nil
}

// count buckets one request: err is its transport failure, if any, sim
// says it went to /v1/simulate, and lat is its latency in seconds. An
// OK plan response counts under its X-Cache verdict.
func (r *LoadReport) count(resp *http.Response, err error, sim bool, lat float64) {
	r.Requests++
	if sim {
		r.Simulations++
	}
	if r.StatusCounts == nil {
		r.StatusCounts = make(map[string]int)
	}
	if err != nil {
		r.Errors++
		r.StatusCounts["net"]++
		return
	}
	r.latencies = append(r.latencies, lat)
	r.StatusCounts[strconv.Itoa(resp.StatusCode)]++
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		r.Shed++
	case resp.StatusCode != http.StatusOK:
		r.Errors++
	case sim: // a simulation carries no cache verdict
	default:
		switch resp.Header.Get("X-Cache") {
		case "hit":
			r.Hits++
		case "coalesced":
			r.Coalesced++
		case "replica-hit":
			r.ReplicaHits++
		case "forward-hit":
			r.ForwardHits++
		case "forward-miss":
			r.ForwardMisses++
		default:
			r.Misses++
		}
	}
}

// add folds o's counts and latencies into r.
func (r *LoadReport) add(o *LoadReport) {
	r.Requests += o.Requests
	r.Errors += o.Errors
	r.Shed += o.Shed
	r.Hits += o.Hits
	r.Misses += o.Misses
	r.Coalesced += o.Coalesced
	r.Simulations += o.Simulations
	r.ReplicaHits += o.ReplicaHits
	r.ForwardHits += o.ForwardHits
	r.ForwardMisses += o.ForwardMisses
	if len(o.StatusCounts) > 0 && r.StatusCounts == nil {
		r.StatusCounts = make(map[string]int)
	}
	for code, n := range o.StatusCounts {
		r.StatusCounts[code] += n
	}
	r.latencies = append(r.latencies, o.latencies...)
}

// finish derives the rates and percentiles from the counts of a run
// that took elapsed seconds.
func (r *LoadReport) finish(elapsed float64) {
	r.ElapsedS = elapsed
	r.Forwarded = r.ForwardHits + r.ForwardMisses
	if r.Requests > 0 {
		r.ErrorRate = float64(r.Errors+r.Shed) / float64(r.Requests)
	}
	if elapsed > 0 {
		r.ThroughputRPS = float64(len(r.latencies)) / elapsed
	}
	sort.Float64s(r.latencies)
	r.P50Ms = stats.Percentile(r.latencies, 50) * 1e3
	r.P95Ms = stats.Percentile(r.latencies, 95) * 1e3
	r.P99Ms = stats.Percentile(r.latencies, 99) * 1e3
	lookups := r.Hits + r.Misses + r.Coalesced + r.ReplicaHits + r.Forwarded
	if lookups > 0 {
		r.HitRate = float64(r.Hits+r.Coalesced+r.ReplicaHits+r.ForwardHits) / float64(lookups)
	}
}

// RunLoad drives the daemon — or, with multiple URLs, the whole ring —
// with spec and reports throughput, latency percentiles, and cache
// behavior as observed from the client side (X-Cache headers). It is
// the engine behind `mccio-pland load`.
func RunLoad(spec LoadSpec) (*LoadReport, error) {
	if len(spec.URLs) == 0 {
		return nil, fmt.Errorf("pland: no URLs to load")
	}
	spec = spec.withDefaults()
	planBodies, simBodies, err := loadBodies(spec)
	if err != nil {
		return nil, err
	}
	zipf := stats.NewZipf(spec.Keys, spec.ZipfS)
	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        spec.Concurrency * 2,
			MaxIdleConnsPerHost: spec.Concurrency * 2,
		},
	}

	var next atomic.Int64
	// tallies[w][s] is client w's tally against shard s.
	tallies := make([][]LoadReport, spec.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range tallies {
		tallies[w] = make([]LoadReport, len(spec.URLs))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRNG(sweep.Seed(spec.Seed, w))
			for {
				i := int(next.Add(1)) - 1
				if i >= spec.Requests {
					return
				}
				// The first Keys requests sweep every layout once — a
				// deterministic warm pass, so the planner runs exactly
				// once per key regardless of the Zipf tail — then the
				// skewed phase begins.
				key := i
				if i >= spec.Keys {
					key = zipf.Sample(rng)
				}
				shard := i % len(spec.URLs)
				url, body := spec.URLs[shard]+"/v1/plan", planBodies[key]
				isSim := spec.SimEvery > 0 && i >= spec.Keys && i%spec.SimEvery == 0
				if isSim {
					url, body = spec.URLs[shard]+"/v1/simulate", simBodies[key]
				}
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				tallies[w][shard].count(resp, err, isSim, time.Since(t0).Seconds())
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	// Release the keep-alive pool now rather than at GC: a conn the
	// transport dialed but never used sits in StateNew server-side,
	// where a graceful Shutdown waits ~5s before reaping it.
	client.CloseIdleConnections()

	rep := &LoadReport{}
	for s, url := range spec.URLs {
		row := LoadReport{URL: url}
		for w := range tallies {
			row.add(&tallies[w][s])
		}
		rep.add(&row)
		if len(spec.URLs) > 1 {
			row.finish(elapsed)
			rep.Shards = append(rep.Shards, row)
		}
	}
	rep.finish(elapsed)
	return rep, nil
}
