package pland

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
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
	// Nodes sizes the generated platform; <= 0 means 4.
	Nodes int
	// SimEvery routes every Nth request to /v1/simulate instead of
	// /v1/plan; 0 means plans only.
	SimEvery int
	// Seed derives each client's RNG; 0 means 1.
	Seed uint64
}

// LoadReport is RunLoad's result. The JSON field names are part of the
// CI contract: the serve-smoke job asserts on them with jq.
type LoadReport struct {
	Requests    int `json:"requests"`
	Errors      int `json:"errors"`
	Shed        int `json:"shed"`
	Hits        int `json:"hits"`
	Misses      int `json:"misses"`
	Coalesced   int `json:"coalesced"`
	Simulations int `json:"simulations"`
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
	// HitRate is (hits+coalesced) / plan lookups — the fraction of
	// plan requests that did not run the planner.
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
	Shards []ShardReport `json:"shards,omitempty"`
}

// ShardReport is one endpoint's slice of a cluster-mode load run, as
// observed from the client side.
type ShardReport struct {
	// URL is the shard's base URL.
	URL string `json:"url"`
	// Requests is how many requests this shard was sent; Errors counts
	// its non-2xx and transport failures.
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// Hits through ForwardMisses break plan lookups down by X-Cache
	// verdict at this shard.
	Hits          int `json:"hits"`
	Misses        int `json:"misses"`
	Coalesced     int `json:"coalesced"`
	ReplicaHits   int `json:"replica_hits"`
	ForwardHits   int `json:"forward_hits"`
	ForwardMisses int `json:"forward_misses"`
	// HitRate is the fraction of this shard's plan lookups that did
	// not run the planner anywhere in the cluster.
	HitRate float64 `json:"hit_rate"`
	// P50Ms, P95Ms, P99Ms are this shard's latency percentiles.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
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
	if s.Nodes <= 0 {
		s.Nodes = 4
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
	mc := cluster.TestbedConfig(s.Nodes)
	mc.MemPerNode = 64 * cluster.MiB
	fc := pfs.DefaultConfig()
	if s.Ranks > s.Nodes*mc.CoresPerNode {
		return nil, nil, fmt.Errorf("pland: %d ranks exceed the %d-node machine", s.Ranks, s.Nodes)
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

// shardCounts is one client's tally against one shard, merged after
// the run.
type shardCounts struct {
	requests, errors, shed, sims                                     int
	hits, misses, coalesced, replicaHits, forwardHits, forwardMisses int
	status                                                           map[string]int
	latencies                                                        []float64 // seconds
}

// loadCounts is one client's tally: one shardCounts per target URL.
type loadCounts struct {
	shards []shardCounts
}

// addStatus bumps one status-code bucket ("200", "429", or "net" for a
// transport failure).
func (c *shardCounts) addStatus(code string) {
	if c.status == nil {
		c.status = make(map[string]int)
	}
	c.status[code]++
}

// addVerdict buckets one OK plan response by its X-Cache verdict.
func (c *shardCounts) addVerdict(verdict string) {
	switch verdict {
	case "hit":
		c.hits++
	case "coalesced":
		c.coalesced++
	case "replica-hit":
		c.replicaHits++
	case "forward-hit":
		c.forwardHits++
	case "forward-miss":
		c.forwardMisses++
	default:
		c.misses++
	}
}

// lookups is the shard's plan-lookup count; served is how many of
// them avoided a planner run anywhere in the cluster.
func (c *shardCounts) lookups() (lookups, served int) {
	lookups = c.hits + c.misses + c.coalesced + c.replicaHits + c.forwardHits + c.forwardMisses
	served = c.hits + c.coalesced + c.replicaHits + c.forwardHits
	return
}

// RunLoad drives the daemon — or, with multiple URLs, the whole ring —
// with spec and reports throughput, latency percentiles, and cache
// behavior as observed from the client side (X-Cache headers). It is
// the engine behind `mccio-pland load` and the serve benchmark
// experiment.
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
	counts := make([]loadCounts, spec.Concurrency)
	for w := range counts {
		counts[w].shards = make([]shardCounts, len(spec.URLs))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < spec.Concurrency; w++ {
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
				tally := &counts[w].shards[shard]
				tally.requests++
				url, body := spec.URLs[shard]+"/v1/plan", planBodies[key]
				isSim := spec.SimEvery > 0 && i >= spec.Keys && i%spec.SimEvery == 0
				if isSim {
					url, body = spec.URLs[shard]+"/v1/simulate", simBodies[key]
					tally.sims++
				}
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					tally.errors++
					tally.addStatus("net")
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				tally.latencies = append(tally.latencies, time.Since(t0).Seconds())
				tally.addStatus(fmt.Sprintf("%d", resp.StatusCode))
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					tally.shed++
				case resp.StatusCode != http.StatusOK:
					tally.errors++
				case !isSim:
					tally.addVerdict(resp.Header.Get("X-Cache"))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	// Release the keep-alive pool now rather than at GC: a conn the
	// transport dialed but never used sits in StateNew server-side,
	// where a graceful Shutdown waits ~5s before reaping it.
	client.CloseIdleConnections()

	rep := &LoadReport{
		Requests:     spec.Requests,
		ElapsedS:     elapsed,
		StatusCounts: make(map[string]int),
	}
	// Fold the per-worker tallies into one merged shardCounts per URL,
	// then the shard rows into the cluster-wide report.
	merged := make([]shardCounts, len(spec.URLs))
	for w := range counts {
		for s := range counts[w].shards {
			m, c := &merged[s], &counts[w].shards[s]
			m.requests += c.requests
			m.errors += c.errors
			m.shed += c.shed
			m.sims += c.sims
			m.hits += c.hits
			m.misses += c.misses
			m.coalesced += c.coalesced
			m.replicaHits += c.replicaHits
			m.forwardHits += c.forwardHits
			m.forwardMisses += c.forwardMisses
			if len(c.status) > 0 && m.status == nil {
				m.status = make(map[string]int)
			}
			for code, n := range c.status {
				m.status[code] += n
			}
			m.latencies = append(m.latencies, c.latencies...)
		}
	}
	var lats []float64
	for s := range merged {
		m := &merged[s]
		rep.Errors += m.errors
		rep.Shed += m.shed
		rep.Hits += m.hits
		rep.Misses += m.misses
		rep.Coalesced += m.coalesced
		rep.ReplicaHits += m.replicaHits
		rep.ForwardHits += m.forwardHits
		rep.ForwardMisses += m.forwardMisses
		rep.Simulations += m.sims
		for code, n := range m.status {
			rep.StatusCounts[code] += n
		}
		lats = append(lats, m.latencies...)
		if len(spec.URLs) > 1 {
			rep.Shards = append(rep.Shards, shardReport(spec.URLs[s], m))
		}
	}
	rep.Forwarded = rep.ForwardHits + rep.ForwardMisses
	if spec.Requests > 0 {
		rep.ErrorRate = float64(rep.Errors+rep.Shed) / float64(spec.Requests)
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(len(lats)) / elapsed
	}
	sort.Float64s(lats)
	rep.P50Ms = stats.Percentile(lats, 50) * 1e3
	rep.P95Ms = stats.Percentile(lats, 95) * 1e3
	rep.P99Ms = stats.Percentile(lats, 99) * 1e3
	if lookups, served := foldLookups(merged); lookups > 0 {
		rep.HitRate = float64(served) / float64(lookups)
	}
	return rep, nil
}

// foldLookups sums lookup and served counts across merged shard
// tallies.
func foldLookups(merged []shardCounts) (lookups, served int) {
	for s := range merged {
		l, sv := merged[s].lookups()
		lookups += l
		served += sv
	}
	return
}

// shardReport builds one shard's report row from its merged tally.
func shardReport(url string, m *shardCounts) ShardReport {
	sr := ShardReport{
		URL:           url,
		Requests:      m.requests,
		Errors:        m.errors,
		Hits:          m.hits,
		Misses:        m.misses,
		Coalesced:     m.coalesced,
		ReplicaHits:   m.replicaHits,
		ForwardHits:   m.forwardHits,
		ForwardMisses: m.forwardMisses,
	}
	if lookups, served := m.lookups(); lookups > 0 {
		sr.HitRate = float64(served) / float64(lookups)
	}
	sort.Float64s(m.latencies)
	sr.P50Ms = stats.Percentile(m.latencies, 50) * 1e3
	sr.P95Ms = stats.Percentile(m.latencies, 95) * 1e3
	sr.P99Ms = stats.Percentile(m.latencies, 99) * 1e3
	return sr
}
