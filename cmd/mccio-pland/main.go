// Command mccio-pland runs the plan-serving daemon: an HTTP service
// that computes (or cache-hits) MCCIO aggregation plans and runs
// on-demand simulations — and, as subcommands, the two clients that
// drive and watch it.
//
// Usage:
//
//	mccio-pland -addr 127.0.0.1:9100
//	mccio-pland -addr :9100 -cache 4096 -workers 8 -queue 128
//	mccio-pland -addr :9100 -trace serve.trace.json
//	mccio-pland -addr :9100 -log requests.jsonl -pprof
//	mccio-pland -addr :9201 -shard-id s1 \
//	    -peers "s1=http://127.0.0.1:9201,s2=http://127.0.0.1:9202,s3=http://127.0.0.1:9203"
//	mccio-pland load -url http://127.0.0.1:9100 -n 500 -c 16 -json load.json
//	mccio-pland top -url http://127.0.0.1:9100 -once
//
// Endpoints: POST /v1/plan, POST /v1/simulate, GET /healthz,
// GET /metrics, GET /metrics.json, GET /debug/flight,
// GET /debug/explain, GET /debug/ring, and (with
// -pprof) GET /debug/pprof/. SIGINT/SIGTERM drains gracefully:
// in-flight requests finish (up to -drain-timeout) and the process
// exits 0. SIGQUIT dumps the in-memory flight recorder — the last
// -flight requests plus the slowest and the failures — to stderr as
// JSONL and keeps serving.
//
// With -peers (a comma-separated id=url list naming every ring member,
// including this daemon under -shard-id), the daemon joins a
// plan-serving ring: a consistent-hash ring assigns each plan
// fingerprint an owner shard, wrong-shard requests are proxied to the
// owner in one internal hop, and hot fingerprints (≥ -hot-threshold
// requests per -hot-window) are replicated into the local cache so the
// Zipf head is served from every shard. Peer health is probed every
// -probe-interval; dead shards are routed around.
//
// The load and top subcommands take -url as a comma-separated list of
// daemon base URLs; two or more address a ring (see client.go).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/logx"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pland"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the subcommand — serving when there is none — and
// returns the process exit code: 0 success, 1 operational failure, 2
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "load":
			return runLoad(args[1:], stdout, stderr)
		case "top":
			return runTop(args[1:], stdout, stderr)
		}
		fmt.Fprintf(stderr, "mccio-pland: unknown subcommand %q\nusage: mccio-pland [flags] | mccio-pland load|top [flags]\n", args[0])
		return 2
	}
	return serve(args, stderr)
}

// serve runs the daemon until SIGINT/SIGTERM drains it.
func serve(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("mccio-pland", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:9100", "listen address")
		cacheCap  = fs.Int("cache", 1024, "plan cache capacity (entries)")
		workers   = fs.Int("workers", 0, "planner/simulator worker count (0 = GOMAXPROCS)")
		queue     = fs.Int("queue", 64, "admission backlog beyond in-flight jobs (negative = none)")
		tracePath = fs.String("trace", "", "write server-side request spans to this trace file on exit")
		drainT    = fs.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests")
		logPath   = fs.String("log", "", "write one JSONL record per request to this file (\"-\" = stderr)")
		flightN   = fs.Int("flight", 256, "flight recorder ring size (last N requests kept in memory)")
		pprofOn   = fs.Bool("pprof", false, "mount live profiling handlers under /debug/pprof/")
		shardID   = fs.String("shard-id", "", "this daemon's name on the plan-serving ring (required with -peers)")
		peersFlag = fs.String("peers", "", "ring membership as id=url,id=url,... including this daemon; 2+ entries enable cluster mode")
		vnodes    = fs.Int("vnodes", 0, "virtual nodes per ring member (0 = default)")
		hotThresh = fs.Int("hot-threshold", 8, "requests per -hot-window at which a non-owned plan replicates locally")
		hotWindow = fs.Duration("hot-window", 10*time.Second, "hot-key tracking window")
		probeIv   = fs.Duration("probe-interval", 500*time.Millisecond, "peer health probe period")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "mccio-pland: "+format+"\n", a...)
		return 1
	}

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		return fail("%v", err)
	}
	if len(peers) > 0 && *shardID == "" {
		return fail("-peers requires -shard-id")
	}

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	var logger *logx.Logger
	if *logPath != "" {
		lw := stderr
		if *logPath != "-" {
			f, err := os.Create(*logPath)
			if err != nil {
				return fail("%v", err)
			}
			defer f.Close()
			lw = f
		}
		logger = logx.New(lw)
	}
	cfg := pland.Config{
		Addr:          *addr,
		CacheCapacity: *cacheCap,
		Workers:       *workers,
		Queue:         *queue,
		Registry:      metrics.New(),
		Tracer:        tracer,
		Logger:        logger,
		FlightSize:    *flightN,
		Pprof:         *pprofOn,
		ShardID:       *shardID,
		Peers:         peers,
		Vnodes:        *vnodes,
		HotThreshold:  *hotThresh,
		HotWindow:     *hotWindow,
		ProbeInterval: *probeIv,
	}
	// The flag default 64 doubles as pland's own default; distinguish
	// an explicit -queue 0 (no backlog at all) from the unset case.
	if *queue == 0 {
		cfg.Queue = -1
	}
	srv, err := pland.New(cfg)
	if err != nil {
		return fail("%v", err)
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(stderr, "mccio-pland: serving on http://%s (cache %d, workers %d)\n",
		srv.Addr(), *cacheCap, w)
	if len(peers) > 1 {
		fmt.Fprintf(stderr, "mccio-pland: shard %s of a %d-member ring\n", *shardID, len(peers))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGQUIT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

wait:
	for {
		select {
		case err := <-serveErr:
			return fail("%v", err)
		case s := <-sig:
			// SIGQUIT is the in-flight triage signal: dump the flight
			// recorder and keep serving. SIGINT/SIGTERM drain and exit.
			if s == syscall.SIGQUIT {
				fl := srv.Flight()
				fmt.Fprintf(stderr, "mccio-pland: SIGQUIT — flight recorder (%d requests seen):\n", fl.Len())
				if err := fl.WriteJSONL(stderr); err != nil {
					fmt.Fprintf(stderr, "mccio-pland: flight dump: %v\n", err)
				}
				continue
			}
			fmt.Fprintf(stderr, "mccio-pland: %v — draining\n", s)
			break wait
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fail("drain: %v", err)
	}
	if err := <-serveErr; err != nil {
		return fail("%v", err)
	}
	if tracer != nil {
		if err := writeTrace(*tracePath, tracer); err != nil {
			return fail("trace: %v", err)
		}
		fmt.Fprintf(stderr, "mccio-pland: wrote %d trace events to %s\n", tracer.Len(), *tracePath)
	}
	fmt.Fprintln(stderr, "mccio-pland: drained cleanly")
	return 0
}

// parsePeers parses the -peers flag: a comma-separated list of id=url
// entries. An empty flag returns nil (single-node mode).
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	peers := make(map[string]string)
	for _, entry := range splitList(s) {
		id, url, ok := strings.Cut(entry, "=")
		id, url = strings.TrimSpace(id), strings.TrimSpace(url)
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q; want id=url", entry)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate shard ID %q in -peers", id)
		}
		peers[id] = url
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers %q names no members", s)
	}
	return peers, nil
}

// writeTrace serializes the trace; the extension picks the format
// (.jsonl = JSON lines, otherwise Chrome trace_event JSON).
func writeTrace(path string, t *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".jsonl") {
		return t.WriteJSONL(f)
	}
	return t.WriteChrome(f)
}
