// Command mccio-sim runs a single collective I/O simulation with every
// knob exposed as a flag and prints the phase breakdown — the tool for
// poking at one configuration rather than sweeping a figure.
//
// Examples:
//
//	mccio-sim -strategy mccio -op write -workload ior -procs 120 -mem 8MB
//	mccio-sim -strategy two-phase -workload collperf -dim 512 -mem 16MB
//	mccio-sim -strategy two-layer -workload ior -procs 48 -cores 4 -mem 16MB
//	mccio-sim -strategy independent -workload random -procs 24
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/adio"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/faults"
	"repro/internal/iolib"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// parseSize accepts 8MB, 512KB, 1GB, or raw bytes.
func parseSize(s string) (int64, error) {
	mul := int64(1)
	up := strings.ToUpper(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(up, "GB"):
		mul, up = 1<<30, strings.TrimSuffix(up, "GB")
	case strings.HasSuffix(up, "MB"):
		mul, up = 1<<20, strings.TrimSuffix(up, "MB")
	case strings.HasSuffix(up, "KB"):
		mul, up = 1<<10, strings.TrimSuffix(up, "KB")
	case strings.HasSuffix(up, "B"):
		up = strings.TrimSuffix(up, "B")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(up), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	return n * mul, nil
}

func main() {
	var (
		stratName = flag.String("strategy", strategy.MCCIO, strategy.List())
		op        = flag.String("op", "write", "write | read")
		wlName    = flag.String("workload", "ior", "ior | collperf | tile2d | random | checkpoint")
		procs     = flag.Int("procs", 120, "number of MPI processes")
		cores     = flag.Int("cores", 12, "cores (ranks) per node")
		memStr    = flag.String("mem", "8MB", "nominal aggregation memory per node")
		sigmaMB   = flag.Int64("sigma", 50, "memory variance sigma in MB (0 = uniform)")
		dim       = flag.Int64("dim", 512, "collperf cube dimension (elements)")
		blockStr  = flag.String("block", "4MB", "ior block size")
		segments  = flag.Int("segments", 8, "ior segments")
		seed      = flag.Uint64("seed", 42, "simulation seed")
		verify    = flag.Bool("verify", false, "use real data and verify every byte (small runs only)")
		msgind    = flag.String("msgind", "", "override mccio Msgind (e.g. 4MB)")
		nah       = flag.Int("nah", 0, "override mccio Nah")
		calibrate = flag.Bool("calibrate", false, "measure Msgind/Nah/Memmin/Msggroup on the platform (paper §3) and use them")
		combine   = flag.Bool("combine", false, "run mccio's exchange in two layers under lowest-rank node leaders (see -twolayer for elected ones)")
		twoLayer  = flag.Bool("twolayer", false, "compose the full two-layer exchange (elected leaders) into mccio's groups")
		hints     = flag.String("hints", "", "MPI_Info-style hints (overrides -strategy); 'help' lists keys")
		tracePath = flag.String("trace", "", "record an event trace to FILE (.jsonl = JSON lines, otherwise Chrome trace_event JSON for Perfetto) and print the phase breakdown")
		explPath  = flag.String("explain", "", "record the planner decision audit and memory timeline to FILE as JSONL (render with mccio-report explain/memtl)")
		serveAddr = flag.String("serve", "", "serve Prometheus metrics on ADDR (e.g. :9090) at /metrics and keep serving after the run until interrupted")
		metaPath  = flag.String("metrics", "", "write a one-shot JSON metrics dump to FILE after the run")
		faultPath = flag.String("faults", "", "inject the deterministic fault schedule from this JSON FaultSpec (see examples/chaos.json)")
	)
	flag.Parse()

	if *hints == "help" {
		for _, k := range adio.KnownKeys() {
			fmt.Println(k)
		}
		return
	}

	mem, err := parseSize(*memStr)
	if err != nil {
		fatal(err)
	}
	block, err := parseSize(*blockStr)
	if err != nil {
		fatal(err)
	}
	if *procs%*cores != 0 {
		fatal(fmt.Errorf("procs %d not divisible by cores/node %d", *procs, *cores))
	}
	nodes := *procs / *cores

	var wl workload.Workload
	switch *wlName {
	case "ior":
		wl = workload.IOR{Ranks: *procs, BlockSize: block, Segments: *segments, TransferSize: block}
	case "collperf":
		wl = workload.CollPerf3D{Dims: [3]int64{*dim, *dim, *dim}, Procs: workload.Grid3(*procs), Elem: 4}
	case "tile2d":
		g := workload.Grid3(*procs)
		wl = workload.Tile2D{Rows: *dim * g[2], Cols: *dim * g[1] * g[0], TilesX: g[2], TilesY: g[1] * g[0], Elem: 4}
	case "random":
		wl = workload.Random{Ranks: *procs, SegsPerRank: 64, SegLen: 64 << 10, FileSize: int64(*procs) * 16 << 20, Seed: *seed}
	case "checkpoint":
		wl = workload.Checkpoint{Ranks: *procs, MeanBytes: 16 << 20, Sigma: 0.7, Seed: *seed, Align: 1 << 20}
	default:
		fatal(fmt.Errorf("unknown workload %q", *wlName))
	}

	mcfg := cluster.TestbedConfig(nodes)
	// -cores shapes rank placement too, not just the node count: the
	// intra/inter traffic split and the two-layer election depend on
	// which ranks share a node.
	mcfg.CoresPerNode = *cores
	mcfg.MemPerNode = mem
	if *sigmaMB > 0 {
		mcfg.MemSigma = float64(*sigmaMB*cluster.MB) / float64(mem)
	}
	mcfg.MemFloor = mem / 4
	mcfg.Seed = *seed
	fcfg := pfs.DefaultConfig()
	fcfg.JitterMean = 12e-3
	fcfg.Seed = *seed

	s := buildStrategy(*hints, *stratName, *calibrate, *combine, *twoLayer, *msgind, *nah, mem, nodes, mcfg, fcfg, wl)

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	var rec *explain.Recorder
	if *explPath != "" {
		rec = explain.NewRecorder()
	}
	var reg *metrics.Registry
	if *serveAddr != "" || *metaPath != "" {
		reg = metrics.New()
	}
	// The exporter comes up before the run so the endpoint can be
	// scraped while the simulation executes.
	var expo *metrics.Exposition
	if *serveAddr != "" {
		var err error
		expo, err = metrics.StartExposition(*serveAddr, reg, os.Stderr)
		if err != nil {
			fatal(err)
		}
	}
	var sched *faults.Schedule
	if *faultPath != "" {
		fspec, err := faults.LoadSpec(*faultPath)
		if err != nil {
			fatal(err)
		}
		if sched, err = faults.NewSchedule(fspec); err != nil {
			fatal(err)
		}
	}
	res, err := bench.RunOnce(bench.Spec{
		Strategy: s, Op: *op, Machine: mcfg, FS: fcfg, Workload: wl, Verify: *verify,
		Tracer: tracer, Metrics: reg, Faults: sched, Explain: rec,
	})
	if err != nil {
		fatal(err)
	}
	report(res, wl, nodes, *cores, *memStr, *sigmaMB, *verify)
	if sched != nil {
		fmt.Printf("faults:          %d injected, %d failovers, %d unrecovered, %d drops\n",
			sched.Injected(), sched.Failovers(), sched.Unrecovered(), sched.Dropped())
	}
	if tracer != nil {
		if err := writeTrace(*tracePath, tracer); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", tracer.Len(), *tracePath)
		obs.Summarize(tracer.Events()).WriteText(os.Stdout)
	}
	if rec != nil {
		if err := writeExplain(*explPath, rec); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d decision events to %s\n", rec.Len(), *explPath)
	}
	// Anomaly scan: phase stragglers need the tracer, memory-ceiling
	// checks need the decision log; run with whatever was recorded.
	if tracer != nil || rec != nil {
		var sum *obs.Summary
		if tracer != nil {
			sum = obs.Summarize(tracer.Events())
		}
		anomalies := explain.DetectAnomalies(sum, rec.Events(), explain.AnomalyConfig{})
		for _, a := range anomalies {
			fmt.Fprintf(os.Stderr, "warning: %s: %s\n", a.Kind, a.Detail)
		}
		if reg != nil {
			explain.CountAnomalies(reg, anomalies)
		}
	}
	if *metaPath != "" {
		if err := writeMetricsJSON(*metaPath, reg); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics dump to %s\n", *metaPath)
	}
	if expo != nil {
		expo.Block(os.Stderr, "run complete; still serving /metrics — interrupt to exit")
	}
}

// writeMetricsJSON dumps the registry snapshot as indented JSON.
func writeMetricsJSON(path string, reg *metrics.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.WriteJSON(f)
}

// writeExplain serializes the decision log as schema-versioned JSONL.
func writeExplain(path string, rec *explain.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return rec.WriteJSONL(f)
}

// writeTrace serializes the trace; the extension picks the format.
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

// buildStrategy resolves the strategy from hints (when given) or the
// individual flags. An unknown -strategy is a usage error: exit 2 with
// the canonical allowed list.
func buildStrategy(hints, name string, calibrate, combine, twoLayer bool, msgind string, nah int,
	mem int64, nodes int, mcfg cluster.Config, fcfg pfs.Config, wl workload.Workload) iolib.Collective {
	if hints != "" {
		h, err := adio.ParseHints(hints)
		if err != nil {
			fatal(err)
		}
		s, err := h.BuildStrategy(mcfg, fcfg, wl.TotalBytes())
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "strategy from hints: %s\n", s.Name())
		return s
	}
	if !strategy.Valid(name) {
		fmt.Fprintf(os.Stderr, "mccio-sim: unknown strategy %q (want %s)\n", name, strategy.List())
		os.Exit(2)
	}
	var opts core.Options
	if name == strategy.MCCIO {
		opts = core.DefaultOptions(mcfg, fcfg)
		if calibrate {
			rep, err := core.Calibrate(mcfg, fcfg)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "calibration:\n%s", rep.String())
			opts = rep.Result
		}
		opts.NodeCombine = combine
		opts.TwoLayer = twoLayer
		opts.Msggroup = wl.TotalBytes() / int64(max(nodes/2, 1))
		opts.Memmin = mem / 4
		if msgind != "" {
			v, err := parseSize(msgind)
			if err != nil {
				fatal(err)
			}
			opts.Msgind = v
		}
		if nah > 0 {
			opts.Nah = nah
		}
		fmt.Fprintf(os.Stderr, "mccio options: Msgind=%d Msggroup=%d Nah=%d Memmin=%d\n",
			opts.Msgind, opts.Msggroup, opts.Nah, opts.Memmin)
	}
	s, err := adio.New(name, opts, mem)
	if err != nil {
		fatal(err)
	}
	return s
}

// report prints the run summary.
func report(res trace.Result, wl workload.Workload, nodes, cores int, memStr string, sigmaMB int64, verify bool) {
	fmt.Printf("workload:        %s\n", wl.Name())
	fmt.Printf("platform:        %d nodes x %d cores, %s/node aggregation memory (sigma %dMB)\n",
		nodes, cores, memStr, sigmaMB)
	fmt.Printf("result:          %s\n", res.String())
	fmt.Printf("bandwidth:       %.1f MB/s\n", res.BandwidthMBps())
	fmt.Printf("rounds:          %d\n", res.Rounds)
	fmt.Printf("aggregators:     %d in %d groups (%d remerges)\n", res.Aggregators, res.Groups, res.Remerges)
	if res.Leaders > 0 {
		fmt.Printf("node leaders:    %d elected (two-layer exchange)\n", res.Leaders)
	}
	fmt.Printf("file I/O:        %.1f MB in %d requests\n", float64(res.BytesIO)/1e6, res.IORequests)
	fmt.Printf("shuffle traffic: %.1f MB intra-node, %.1f MB inter-node\n",
		float64(res.BytesShuffleIntra)/1e6, float64(res.BytesShuffleInter)/1e6)
	fmt.Printf("phase time:      %.3f s exchange, %.3f s file I/O (summed over aggregators)\n",
		res.ExchangeSeconds, res.IOSeconds)
	if st := res.AggBufferStats(); st.N > 0 {
		fmt.Printf("agg buffers:     mean %.2f MB, min %.2f, max %.2f (cv %.3f)\n",
			st.Mean/1e6, st.Min/1e6, st.Max/1e6, st.Std/maxf(st.Mean, 1))
	}
	if verify {
		fmt.Println("verification:    every byte checked OK")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mccio-sim: %v\n", err)
	os.Exit(1)
}
