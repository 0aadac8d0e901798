// Package top turns successive /metrics.json snapshots of a running
// mccio-pland daemon into the live dashboard `mccio-pland top` renders:
// request rate, status mix, cache hit rate, latency percentiles, shed
// and queue pressure. It works purely on decoded metrics.Snapshot
// values, so anything that can fetch the JSON exposition — a test, a
// script, the CLI — can drive it.
package top

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// Model is one dashboard frame: everything derived from the previous
// and current snapshots plus the seconds between them.
type Model struct {
	// ReqPerSec is the request rate over the sampling window (0 when
	// there is no previous snapshot).
	ReqPerSec float64
	// TotalRequests is the cumulative request count.
	TotalRequests float64
	// Codes is the cumulative per-status-code request count.
	Codes map[string]float64
	// HitRate is the cumulative plan-cache hit fraction
	// ((hits+coalesced)/lookups); Hits, Misses, Coalesced are the raw
	// counters behind it.
	HitRate   float64
	Hits      float64
	Misses    float64
	Coalesced float64
	// P50, P95, P99 are request-latency percentiles in seconds over
	// the sampling window when it saw requests, else over all time.
	P50 float64
	P95 float64
	P99 float64
	// Windowed reports whether the percentiles cover only the window.
	Windowed bool
	// Shed is the cumulative 429 count; CacheEntries, QueueDepth, and
	// ActiveJobs are the live gauges; PlannerRuns and Simulations the
	// cumulative work counters.
	Shed         float64
	CacheEntries float64
	QueueDepth   float64
	ActiveJobs   float64
	PlannerRuns  float64
	Simulations  float64
	// Cluster counters, all zero on a single-node daemon: Forwards are
	// requests this shard proxied to their owner, ForwardedIn requests
	// it served on a peer's behalf, ReplicaHits non-owned plans served
	// from the local copy, Fallbacks forwards that failed and computed
	// locally. PeersUp of Peers remote shards currently answer probes.
	Forwards    float64
	ForwardedIn float64
	ReplicaHits float64
	Fallbacks   float64
	Peers       float64
	PeersUp     float64
}

// sumSamples adds every sample value of one family.
func sumSamples(s *metrics.Snapshot, name string) float64 {
	var total float64
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, sm := range f.Samples {
			total += sm.Value
		}
	}
	return total
}

// sumByLabel folds every sample of one family into a map keyed by one
// label's value.
func sumByLabel(s *metrics.Snapshot, name, label string) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, sm := range f.Samples {
			out[sm.Labels[label]] += sm.Value
		}
	}
	return out
}

// mergedBuckets folds one histogram family's bucket series across all
// its label sets (e.g. both endpoints) into a single series.
func mergedBuckets(s *metrics.Snapshot, name string) []metrics.Bucket {
	var merged []metrics.Bucket
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, sm := range f.Samples {
			merged = metrics.SumBuckets(merged, sm.Buckets)
		}
	}
	return merged
}

// getOne returns the first sample value of a family (the unlabeled
// gauges and counters).
func getOne(s *metrics.Snapshot, name string) float64 {
	v, _ := s.Get(name, nil)
	return v
}

// Compute derives one dashboard frame. prev may be nil (first poll):
// rates are then zero and percentiles cover all time. dt is the
// seconds between the two snapshots.
func Compute(prev, cur *metrics.Snapshot, dt float64) Model {
	m := Model{
		TotalRequests: sumSamples(cur, "mccio_pland_requests_total"),
		Codes:         sumByLabel(cur, "mccio_pland_requests_total", "code"),
		Hits:          getOne(cur, "mccio_pland_cache_hits_total"),
		Misses:        getOne(cur, "mccio_pland_cache_misses_total"),
		Coalesced:     getOne(cur, "mccio_pland_cache_coalesced_total"),
		Shed:          getOne(cur, "mccio_pland_shed_total"),
		CacheEntries:  getOne(cur, "mccio_pland_cache_entries"),
		QueueDepth:    getOne(cur, "mccio_pland_queue_depth"),
		ActiveJobs:    getOne(cur, "mccio_pland_active_jobs"),
		PlannerRuns:   getOne(cur, "mccio_pland_planner_runs_total"),
		Simulations:   getOne(cur, "mccio_pland_simulations_total"),
		Forwards:      sumSamples(cur, "mccio_pland_forwards_total"),
		ForwardedIn:   getOne(cur, "mccio_pland_forwarded_in_total"),
		ReplicaHits:   getOne(cur, "mccio_pland_replica_hits_total"),
		Fallbacks:     getOne(cur, "mccio_pland_forward_fallbacks_total"),
	}
	for _, up := range sumByLabel(cur, "mccio_pland_peer_up", "peer") {
		m.Peers++
		m.PeersUp += up
	}
	if lookups := m.Hits + m.Misses + m.Coalesced; lookups > 0 {
		m.HitRate = (m.Hits + m.Coalesced) / lookups
	}

	buckets := mergedBuckets(cur, "mccio_pland_request_seconds")
	if prev != nil {
		if dt > 0 {
			m.ReqPerSec = (m.TotalRequests - sumSamples(prev, "mccio_pland_requests_total")) / dt
		}
		// Percentiles over just the window: subtract the previous
		// cumulative bucket counts. Falls back to all-time when the
		// window saw nothing.
		if prevB := mergedBuckets(prev, "mccio_pland_request_seconds"); len(prevB) == len(buckets) {
			delta := append([]metrics.Bucket(nil), buckets...)
			var seen int64
			for i := range delta {
				delta[i].Count -= prevB[i].Count
				seen += delta[i].Count
			}
			if seen > 0 {
				buckets = delta
				m.Windowed = true
			}
		}
	}
	m.P50 = metrics.QuantileBuckets(buckets, 0.50)
	m.P95 = metrics.QuantileBuckets(buckets, 0.95)
	m.P99 = metrics.QuantileBuckets(buckets, 0.99)
	return m
}

// Render writes the frame as a fixed-layout text panel.
func (m Model) Render(w io.Writer) {
	window := "all-time"
	if m.Windowed {
		window = "window"
	}
	codes := make([]string, 0, len(m.Codes))
	for code := range m.Codes {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	parts := make([]string, 0, len(codes))
	for _, code := range codes {
		parts = append(parts, fmt.Sprintf("%s=%.0f", code, m.Codes[code]))
	}
	fmt.Fprintf(w, "requests   %8.1f req/s   total %.0f   [%s]\n",
		m.ReqPerSec, m.TotalRequests, strings.Join(parts, " "))
	fmt.Fprintf(w, "latency    p50 %8.2fms  p95 %8.2fms  p99 %8.2fms  (%s)\n",
		m.P50*1e3, m.P95*1e3, m.P99*1e3, window)
	fmt.Fprintf(w, "cache      %5.1f%% hit rate   %.0f hits  %.0f coalesced  %.0f misses  %.0f entries\n",
		m.HitRate*100, m.Hits, m.Coalesced, m.Misses, m.CacheEntries)
	fmt.Fprintf(w, "work       %.0f planner runs   %.0f simulations   %.0f shed\n",
		m.PlannerRuns, m.Simulations, m.Shed)
	fmt.Fprintf(w, "pressure   queue %.0f   active %.0f\n", m.QueueDepth, m.ActiveJobs)
	if m.Peers > 0 || m.Forwards > 0 || m.ReplicaHits > 0 {
		fmt.Fprintf(w, "cluster    peers %.0f/%.0f up   %.0f fwd out  %.0f fwd in  %.0f replica hits  %.0f fallbacks\n",
			m.PeersUp, m.Peers, m.Forwards, m.ForwardedIn, m.ReplicaHits, m.Fallbacks)
	}
}

// RenderCluster writes one compact row per shard followed by the
// cluster-total panel. names and shards are parallel (one entry per
// polled daemon); total is the frame computed from the merged
// snapshots.
func RenderCluster(w io.Writer, names []string, shards []Model, total Model) {
	for i, sm := range shards {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		fmt.Fprintf(w, "shard %-28s %8.1f req/s  %5.1f%% hit  %.0f planner  %.0f fwd out  %.0f fwd in  p99 %.2fms\n",
			name, sm.ReqPerSec, sm.HitRate*100, sm.PlannerRuns, sm.Forwards, sm.ForwardedIn, sm.P99*1e3)
	}
	fmt.Fprintf(w, "\ncluster total (%d shards)\n", len(shards))
	total.Render(w)
}
