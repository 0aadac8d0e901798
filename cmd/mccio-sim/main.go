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
//	mccio-sim -plan -workload ior -procs 24 -cores 4 -mem 8MB   # the plan only, no run
//	mccio-sim -strategy mccio -cores 4 -mem 8MB app.trace         # replay a recorded trace
//
// A TRACE argument (written by mccio-trace gen, or recorded from an
// application) takes the place of the generated workload: the machine
// gets ⌈ranks / -cores⌉ nodes, and every other flag applies as it does
// to a generated workload.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/adio"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/explain"
	"repro/internal/faults"
	"repro/internal/iolib"
	"repro/internal/iotrace"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns the process exit code: 0
// success, 1 operational failure, 2 usage error (unknown flags, stray
// positional arguments, an unusable -procs/-cores pair, an unknown
// workload or strategy, a generated-workload flag next to a TRACE).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mccio-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		stratName = fs.String("strategy", strategy.MCCIO, strategy.List())
		op        = fs.String("op", "write", "write | read")
		wlName    = fs.String("workload", "ior", "ior | collperf | tile2d | random | checkpoint")
		procs     = fs.Int("procs", 120, "number of MPI processes")
		cores     = fs.Int("cores", 12, "cores (ranks) per node")
		memStr    = fs.String("mem", "8MB", "nominal aggregation memory per node")
		sigmaMB   = fs.Int64("sigma", 50, "memory variance sigma in MB (0 = uniform)")
		dim       = fs.Int64("dim", 512, "collperf cube dimension (elements)")
		blockStr  = fs.String("block", "4MB", "ior block size")
		segments  = fs.Int("segments", 8, "ior segments")
		seed      = fs.Uint64("seed", 42, "simulation seed")
		verify    = fs.Bool("verify", false, "use real data and verify every byte (small runs only)")
		msgind    = fs.String("msgind", "", "override mccio Msgind (e.g. 4MB)")
		nah       = fs.Int("nah", 0, "override mccio Nah")
		calibrate = fs.Bool("calibrate", false, "measure Msgind/Nah/Memmin/Msggroup on the platform (paper §3) and use them")
		twoLayer  = fs.Bool("twolayer", false, "compose the full two-layer exchange (elected leaders) into mccio's groups")
		hints     = fs.String("hints", "", "MPI_Info-style hints (overrides -strategy); 'help' lists keys")
		planOnly  = fs.Bool("plan", false, "print the plan mccio computes for these flags — aggregation groups, partition trees, remerges, placements — on the machine, workload and options the run would use, and exit without running the collective")
		tracePath = fs.String("trace", "", "record an event trace to FILE (.jsonl = JSON lines, otherwise Chrome trace_event JSON for Perfetto) and print the phase breakdown")
		explPath  = fs.String("explain", "", "record the planner decision audit and memory timeline to FILE as JSONL (render with mccio-report explain/memtl)")
		serveAddr = fs.String("serve", "", "serve Prometheus metrics on ADDR (e.g. :9090) at /metrics and keep serving after the run until interrupted")
		metaPath  = fs.String("metrics", "", "write a one-shot JSON metrics dump to FILE after the run")
		faultPath = fs.String("faults", "", "inject the deterministic fault schedule from this JSON FaultSpec (see examples/chaos.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "mccio-sim: "+format+"\nusage: mccio-sim [flags] [TRACE]; -h lists them\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "mccio-sim: %v\n", err)
		return 1
	}
	if fs.NArg() > 1 {
		return usage("unexpected argument %q", fs.Arg(1))
	}
	replayPath := fs.Arg(0)
	if replayPath != "" {
		var generated []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workload", "procs", "dim", "block", "segments":
				generated = append(generated, "-"+f.Name)
			}
		})
		if len(generated) > 0 {
			return usage("%s shape a generated workload; TRACE replaces it", strings.Join(generated, " "))
		}
	}

	if *hints == "help" {
		for _, k := range adio.KnownKeys() {
			fmt.Fprintln(stdout, k)
		}
		return 0
	}

	mem, err := parseSize(*memStr)
	if err != nil {
		return fail(err)
	}
	block, err := parseSize(*blockStr)
	if err != nil {
		return fail(err)
	}
	if *op != "write" && *op != "read" {
		return usage("-op %q: want write or read", *op)
	}
	if *cores <= 0 {
		return usage("-cores %d: must be positive", *cores)
	}
	if replayPath == "" && (*procs <= 0 || *procs%*cores != 0) {
		return usage("-procs %d and -cores %d: procs must be a positive multiple of cores", *procs, *cores)
	}
	if mem <= 0 {
		return usage("-mem %s: must be positive", *memStr)
	}
	if *hints == "" && !strategy.Valid(*stratName) {
		return usage("unknown strategy %q (want %s)", *stratName, strategy.List())
	}

	var wl workload.Workload
	if replayPath != "" {
		rp, err := loadReplay(replayPath, *op)
		if err != nil {
			return fail(err)
		}
		wl = rp
	} else {
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
			return usage("unknown workload %q", *wlName)
		}
	}
	nodes := (wl.NumRanks() + *cores - 1) / *cores

	mcfg := bench.TestbedMachine(nodes, mem, *sigmaMB*cluster.MB, *seed)
	// -cores shapes rank placement too, not just the node count: the
	// intra/inter traffic split and the two-layer election depend on
	// which ranks share a node.
	mcfg.CoresPerNode = *cores
	fcfg := bench.TestbedFS(*seed)

	s, err := buildStrategy(stderr, *hints, *stratName, *calibrate, *twoLayer, *msgind, *nah, mem, mcfg, fcfg, wl)
	if err != nil {
		return fail(err)
	}

	var rec *explain.Recorder
	if *explPath != "" || *planOnly {
		rec = explain.NewRecorder()
	}
	saveExplain := func() error {
		if *explPath == "" {
			return nil
		}
		if err := writeFile(*explPath, rec.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d decision events to %s\n", rec.Len(), *explPath)
		return nil
	}
	if *planOnly {
		mc, ok := s.(core.MCCIO)
		if !ok {
			return usage("-plan prints mccio's plan; strategy %s has none to inspect", s.Name())
		}
		if err := printPlan(stdout, mc, mcfg, wl, *memStr, *sigmaMB, rec); err != nil {
			return fail(err)
		}
		if err := saveExplain(); err != nil {
			return fail(err)
		}
		return 0
	}

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	var reg *metrics.Registry
	if *serveAddr != "" || *metaPath != "" {
		reg = metrics.New()
	}
	// The exporter comes up before the run so the endpoint can be
	// scraped while the simulation executes.
	var expo *metrics.Exposition
	if *serveAddr != "" {
		if expo, err = metrics.StartExposition(*serveAddr, reg, false, stderr); err != nil {
			return fail(err)
		}
	}
	var sched *faults.Schedule
	if *faultPath != "" {
		fspec, err := faults.LoadSpec(*faultPath)
		if err != nil {
			return fail(err)
		}
		if sched, err = faults.NewSchedule(fspec); err != nil {
			return fail(err)
		}
	}
	res, err := bench.RunOnce(bench.Spec{
		Strategy: s, Op: *op, Machine: mcfg, FS: fcfg, Workload: wl, Verify: *verify,
		Tracer: tracer, Metrics: reg, Faults: sched, Explain: rec,
	})
	if err != nil {
		return fail(err)
	}
	report(stdout, res, wl, nodes, *cores, *memStr, *sigmaMB, *verify)
	if sched != nil {
		fmt.Fprintf(stdout, "faults:          %d injected, %d failovers, %d unrecovered, %d drops\n",
			sched.Injected(), sched.Failovers(), sched.Unrecovered(), sched.Dropped())
	}
	if tracer != nil {
		// The extension picks the format.
		write := tracer.WriteChrome
		if strings.HasSuffix(*tracePath, ".jsonl") {
			write = tracer.WriteJSONL
		}
		if err := writeFile(*tracePath, write); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "wrote %d trace events to %s\n", tracer.Len(), *tracePath)
		obs.Summarize(tracer.Events()).WriteText(stdout)
	}
	if err := saveExplain(); err != nil {
		return fail(err)
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
			fmt.Fprintf(stderr, "warning: %s: %s\n", a.Kind, a.Detail)
		}
		if reg != nil {
			explain.CountAnomalies(reg, anomalies)
		}
	}
	if *metaPath != "" {
		if err := writeFile(*metaPath, reg.WriteJSON); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "wrote metrics dump to %s\n", *metaPath)
	}
	if expo != nil {
		expo.Block(stderr, "run complete; still serving /metrics — interrupt to exit")
	}
	return 0
}

// loadReplay reads the trace at path as the workload of an op run. A
// write-only trace replayed as read reads back what was written.
func loadReplay(path, op string) (*iotrace.Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := iotrace.Parse(f)
	if err != nil {
		return nil, err
	}
	traceOp := iotrace.Write
	if op == "read" {
		traceOp = iotrace.Read
	}
	rp, err := iotrace.NewReplay(tr, traceOp)
	if err != nil {
		return nil, err
	}
	if rp.TotalBytes() == 0 && op == "read" {
		if writes, err := iotrace.NewReplay(tr, iotrace.Write); err == nil {
			rp = writes
		}
	}
	if rp.TotalBytes() == 0 {
		return nil, fmt.Errorf("trace has no %s requests", op)
	}
	return rp, nil
}

// printPlan is -plan: the plan mc computes for wl on a fresh machine
// built from mcfg — the same three values a run is given — without
// running the collective, closed by the decision-count summary.
func printPlan(w io.Writer, mc core.MCCIO, mcfg cluster.Config, wl workload.Workload, memStr string, sigmaMB int64, rec *explain.Recorder) error {
	machine, err := cluster.New(mcfg)
	if err != nil {
		return err
	}
	machine.SetExplain(rec)
	fmt.Fprintf(w, "machine: %d nodes x %d cores; nominal %s/node (sigma %d MB)\n",
		mcfg.Nodes, mcfg.CoresPerNode, memStr, sigmaMB)
	fmt.Fprint(w, "node aggregation memory (MB):")
	for _, c := range machine.MemCapacities() {
		fmt.Fprintf(w, " %.1f", float64(c)/1e6)
	}
	opts := mc.Opts
	fmt.Fprintf(w, "\nworkload: %s\n", wl.Name())
	fmt.Fprintf(w, "options: Msgind=%.1fMB Msggroup=%.1fMB Nah=%d Memmin=%.1fMB\n\n",
		float64(opts.Msgind)/1e6, float64(opts.Msggroup)/1e6, opts.Nah, float64(opts.Memmin)/1e6)
	views := make([]datatype.List, wl.NumRanks())
	for r := range views {
		views[r] = wl.View(r)
	}
	res, err := mc.Inspect(machine, views)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Summary())
	fmt.Fprintln(w)
	explain.Summarize(rec.Events()).WriteText(w)
	return nil
}

// writeFile creates path and lets write fill it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// buildStrategy resolves the strategy from hints (when given) or the
// individual flags; name is already known to be valid. Progress notes
// (the hint-selected strategy, the calibration report, mccio's
// tunables) go to stderr.
func buildStrategy(stderr io.Writer, hints, name string, calibrate, twoLayer bool, msgind string, nah int,
	mem int64, mcfg cluster.Config, fcfg pfs.Config, wl workload.Workload) (iolib.Collective, error) {
	if hints != "" {
		h, err := adio.ParseHints(hints)
		if err != nil {
			return nil, err
		}
		s, err := h.BuildStrategy(mcfg, fcfg, wl.TotalBytes())
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "strategy from hints: %s\n", s.Name())
		return s, nil
	}
	var opts core.Options
	if name == strategy.MCCIO {
		opts = bench.MCCIOOptions(mcfg, fcfg, wl.TotalBytes(), mem)
		if calibrate {
			rep, err := core.Calibrate(mcfg, fcfg)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(stderr, "calibration:\n%s", rep.String())
			rep.Result.Msggroup, rep.Result.Memmin = opts.Msggroup, opts.Memmin
			opts = rep.Result
		}
		opts.TwoLayer = twoLayer
		if msgind != "" {
			v, err := parseSize(msgind)
			if err != nil {
				return nil, err
			}
			opts.Msgind = v
		}
		if nah > 0 {
			opts.Nah = nah
		}
		fmt.Fprintf(stderr, "mccio options: Msgind=%d Msggroup=%d Nah=%d Memmin=%d\n",
			opts.Msgind, opts.Msggroup, opts.Nah, opts.Memmin)
	}
	return adio.New(name, opts, mem)
}

// report prints the run summary.
func report(w io.Writer, res trace.Result, wl workload.Workload, nodes, cores int, memStr string, sigmaMB int64, verify bool) {
	fmt.Fprintf(w, "workload:        %s\n", wl.Name())
	fmt.Fprintf(w, "platform:        %d nodes x %d cores, %s/node aggregation memory (sigma %dMB)\n",
		nodes, cores, memStr, sigmaMB)
	fmt.Fprintf(w, "result:          %s\n", res.String())
	fmt.Fprintf(w, "bandwidth:       %.1f MB/s\n", res.BandwidthMBps())
	fmt.Fprintf(w, "rounds:          %d\n", res.Rounds)
	fmt.Fprintf(w, "aggregators:     %d in %d groups (%d remerges)\n", res.Aggregators, res.Groups, res.Remerges)
	if res.Leaders > 0 {
		fmt.Fprintf(w, "node leaders:    %d elected (two-layer exchange)\n", res.Leaders)
	}
	fmt.Fprintf(w, "file I/O:        %.1f MB in %d requests\n", float64(res.BytesIO)/1e6, res.IORequests)
	fmt.Fprintf(w, "shuffle traffic: %.1f MB intra-node, %.1f MB inter-node\n",
		float64(res.BytesShuffleIntra)/1e6, float64(res.BytesShuffleInter)/1e6)
	fmt.Fprintf(w, "phase time:      %.3f s exchange, %.3f s file I/O (summed over aggregators)\n",
		res.ExchangeSeconds, res.IOSeconds)
	if st := res.AggBufferStats(); st.N > 0 {
		fmt.Fprintf(w, "agg buffers:     mean %.2f MB, min %.2f, max %.2f (cv %.3f)\n",
			st.Mean/1e6, st.Min/1e6, st.Max/1e6, st.Std/max(st.Mean, 1))
	}
	if verify {
		fmt.Fprintln(w, "verification:    every byte checked OK")
	}
}
