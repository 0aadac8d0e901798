package main

// The daemon's two clients, as subcommands:
//
//	mccio-pland load -url http://127.0.0.1:9100 -n 500 -c 16
//	mccio-pland load -url http://127.0.0.1:9100 -keys 64 -zipf 1.2 -json load.json
//	mccio-pland load -url http://127.0.0.1:9100 -sim-every 10
//	mccio-pland load -url http://127.0.0.1:9201,http://127.0.0.1:9202,http://127.0.0.1:9203
//	mccio-pland top -url http://127.0.0.1:9100 -interval 1s
//	mccio-pland top -url http://127.0.0.1:9100 -once    # one frame, no redraw
//	mccio-pland top -url http://127.0.0.1:9100 -n 5     # five frames, then exit
//
// load drives the daemon with a closed-loop, Zipf-skewed plan workload
// and reports throughput, latency percentiles, and the client-observed
// cache behavior. With two or more URLs it sprays requests round-robin
// across a plan-serving ring and the report gains a per-shard
// breakdown: each shard's request count, hit rate (counting replica
// hits and forwarded hits as served), and tail latency. With -json the
// report is also written as a JSON object whose field names CI asserts
// on (hits, coalesced, hit_rate, throughput_rps, forwarded, shards,
// ...).
//
// top is a live terminal dashboard: it polls /metrics.json and redraws
// request rate, status mix, latency percentiles, cache hit rate, and
// shed / queue pressure every interval. With two or more URLs it shows
// one row per shard (request rate, hit rate, planner runs, forwards,
// p99) and a cluster-total panel computed from the merged snapshots.
// The first frame shows all-time percentiles; later frames show the
// sampling window when it saw requests.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/pland"
	"repro/internal/top"
)

// defaultURL is the -url both clients start from: the daemon's own
// default listen address.
const defaultURL = "http://127.0.0.1:9100"

// splitList splits a comma-separated flag value (-url, -peers),
// dropping blanks.
func splitList(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// runLoad is `mccio-pland load`; it exits 1 when any request failed.
func runLoad(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mccio-pland load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url      = fs.String("url", defaultURL, "base URL(s) of the pland daemon(s), comma-separated for a ring")
		n        = fs.Int("n", 200, "total requests to issue")
		c        = fs.Int("c", 8, "concurrent closed-loop clients")
		keys     = fs.Int("keys", 32, "distinct request layouts")
		zipf     = fs.Float64("zipf", 1.1, "Zipf popularity skew (0 = uniform)")
		ranks    = fs.Int("ranks", 16, "ranks per generated request")
		simEvery = fs.Int("sim-every", 0, "route every Nth request to /v1/simulate (0 = plans only)")
		seed     = fs.Uint64("seed", 1, "client RNG seed")
		jsonPath = fs.String("json", "", "also write the report as JSON to this file")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "mccio-pland load: %v\n", err)
		return 1
	}
	rep, err := pland.RunLoad(pland.LoadSpec{
		URLs:        splitList(*url),
		Requests:    *n,
		Concurrency: *c,
		Keys:        *keys,
		ZipfS:       *zipf,
		Ranks:       *ranks,
		SimEvery:    *simEvery,
		Seed:        *seed,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "requests    %d (%d errors, %d shed, %.2f%% error rate)\n",
		rep.Requests, rep.Errors, rep.Shed, rep.ErrorRate*100)
	codes := make([]string, 0, len(rep.StatusCounts))
	for code := range rep.StatusCounts {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	var parts []string
	for _, code := range codes {
		parts = append(parts, fmt.Sprintf("%s=%d", code, rep.StatusCounts[code]))
	}
	fmt.Fprintf(stdout, "status      %s\n", strings.Join(parts, " "))
	fmt.Fprintf(stdout, "throughput  %.1f req/s over %.2fs\n", rep.ThroughputRPS, rep.ElapsedS)
	fmt.Fprintf(stdout, "latency     p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n", rep.P50Ms, rep.P95Ms, rep.P99Ms)
	fmt.Fprintf(stdout, "plan cache  %.1f%% hit rate (%d hits, %d coalesced, %d misses)\n",
		rep.HitRate*100, rep.Hits, rep.Coalesced, rep.Misses)
	if rep.Forwarded > 0 || rep.ReplicaHits > 0 {
		fmt.Fprintf(stdout, "cluster     %d forwarded (%d fwd-hit, %d fwd-miss), %d replica hits\n",
			rep.Forwarded, rep.ForwardHits, rep.ForwardMisses, rep.ReplicaHits)
	}
	for _, sr := range rep.Shards {
		fmt.Fprintf(stdout, "  shard %-28s %4d req, %5.1f%% hit, p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
			sr.URL, sr.Requests, sr.HitRate*100, sr.P50Ms, sr.P95Ms, sr.P99Ms)
	}
	if rep.Simulations > 0 {
		fmt.Fprintf(stdout, "simulations %d\n", rep.Simulations)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return fail(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "wrote %s\n", *jsonPath)
	}
	if rep.Errors > 0 {
		return 1
	}
	return 0
}

// runTop is `mccio-pland top`.
func runTop(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mccio-pland top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url      = fs.String("url", defaultURL, "base URL(s) of the pland daemon(s), comma-separated for a ring")
		interval = fs.Duration("interval", 2*time.Second, "poll and redraw interval")
		frames   = fs.Int("n", 0, "number of frames to draw (0 = until interrupted)")
		once     = fs.Bool("once", false, "draw a single frame and exit (same as -n 1, without clearing the screen)")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if *once {
		*frames = 1
	}
	urls := splitList(*url)
	if len(urls) == 0 {
		fmt.Fprintln(stderr, "mccio-pland top: no endpoint URLs")
		return 1
	}

	client := &http.Client{Timeout: 10 * time.Second}
	prevs := make([]*metrics.Snapshot, len(urls))
	var prevMerged *metrics.Snapshot
	var prevAt time.Time
	for i := 0; *frames == 0 || i < *frames; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		curs := make([]*metrics.Snapshot, len(urls))
		for j, u := range urls {
			cur, err := fetch(client, u+"/metrics.json")
			if err != nil {
				fmt.Fprintf(stderr, "mccio-pland top: %v\n", err)
				return 1
			}
			curs[j] = cur
		}
		now := time.Now()
		dt := now.Sub(prevAt).Seconds()
		if !*once {
			// ANSI clear + home: redraw in place like top(1).
			fmt.Fprint(stdout, "\x1b[2J\x1b[H")
			fmt.Fprintf(stdout, "mccio-top — %s — %s\n\n", strings.Join(urls, " "), now.Format("15:04:05"))
		}
		if len(urls) == 1 {
			top.Compute(prevs[0], curs[0], dt).Render(stdout)
			prevs[0] = curs[0]
		} else {
			shards := make([]top.Model, len(urls))
			snaps := make([]metrics.Snapshot, len(urls))
			for j := range urls {
				shards[j] = top.Compute(prevs[j], curs[j], dt)
				snaps[j] = *curs[j]
				prevs[j] = curs[j]
			}
			merged := metrics.MergeSnapshots(snaps...)
			total := top.Compute(prevMerged, &merged, dt)
			top.RenderCluster(stdout, urls, shards, total)
			prevMerged = &merged
		}
		prevAt = now
	}
	return 0
}

// fetch decodes one /metrics.json snapshot.
func fetch(client *http.Client, url string) (*metrics.Snapshot, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode %s: %w", url, err)
	}
	return &snap, nil
}
