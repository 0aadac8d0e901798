// Command mccio-trace generates, inspects, and replays I/O traces —
// the bridge between real application patterns and the simulator.
//
//	mccio-trace gen -workload ior -procs 24 -out ior.trace
//	mccio-trace stat ior.trace
//	mccio-trace run -strategy mccio -mem 8MB ior.trace
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/adio"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/iotrace"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "stat":
		cmdStat(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mccio-trace gen  -workload ior|collperf|random|checkpoint [-procs N] [-out FILE]
  mccio-trace stat FILE
  mccio-trace run  [-strategy `+strategy.List()+`] [-op write|read] [-mem SIZE] [-trace OUT] FILE
                   (-trace records an event trace: .jsonl = JSON lines, else Chrome JSON)`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mccio-trace: %v\n", err)
	os.Exit(1)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	wlName := fs.String("workload", "ior", "ior | collperf | tile2d | random | checkpoint")
	procs := fs.Int("procs", 24, "ranks")
	blockKB := fs.Int64("block", 256, "ior block size, KB")
	segments := fs.Int("segments", 8, "ior segments")
	dim := fs.Int64("dim", 128, "collperf cube dimension")
	out := fs.String("out", "", "output file (default stdout)")
	seed := fs.Uint64("seed", 42, "seed for random workloads")
	fs.Parse(args)

	var wl workload.Workload
	switch *wlName {
	case "ior":
		wl = workload.IOR{Ranks: *procs, BlockSize: *blockKB << 10, Segments: *segments}
	case "collperf":
		wl = workload.CollPerf3D{Dims: [3]int64{*dim, *dim, *dim}, Procs: workload.Grid3(*procs), Elem: 4}
	case "tile2d":
		g := workload.Grid3(*procs)
		wl = workload.Tile2D{Rows: *dim * g[2], Cols: *dim * g[1] * g[0], TilesX: g[2], TilesY: g[1] * g[0], Elem: 4}
	case "random":
		wl = workload.Random{Ranks: *procs, SegsPerRank: 32, SegLen: 64 << 10, FileSize: int64(*procs) << 23, Seed: *seed}
	case "checkpoint":
		wl = workload.Checkpoint{Ranks: *procs, MeanBytes: 4 << 20, Sigma: 0.7, Seed: *seed, Align: 1 << 20}
	default:
		fatal(fmt.Errorf("unknown workload %q", *wlName))
	}
	tr := iotrace.FromWorkload(wl, iotrace.Write)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := tr.Write(w); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "generated %d requests from %s\n", len(tr.Requests), wl.Name())
}

func loadTrace(path string) *iotrace.Trace {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := iotrace.Parse(f)
	if err != nil {
		fatal(err)
	}
	return tr
}

func cmdStat(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	s := iotrace.Analyze(loadTrace(fs.Arg(0)))
	fmt.Printf("ranks:        %d\n", s.Ranks)
	fmt.Printf("requests:     %d (%.0f%% writes)\n", s.Requests, s.WriteShare*100)
	fmt.Printf("bytes:        %.2f MB over file extent %.2f MB\n", float64(s.Bytes)/1e6, float64(s.FileExtent)/1e6)
	fmt.Printf("request size: min %d, mean %.0f, max %d bytes\n", s.MinLen, s.MeanLen, s.MaxLen)
	fmt.Printf("interleave:   %.2f contiguous-ownership runs per rank\n", s.Interleave)
	fmt.Println("size histogram:")
	keys := make([]string, 0, len(s.SizeBuckets))
	for k := range s.SizeBuckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-8s %d\n", k, s.SizeBuckets[k])
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	stratName := fs.String("strategy", strategy.MCCIO, strategy.List())
	op := fs.String("op", "write", "write | read")
	memMB := fs.Int64("mem", 8, "nominal aggregation memory per node, MB")
	cores := fs.Int("cores", 12, "cores per node")
	seed := fs.Uint64("seed", 42, "simulation seed")
	traceOut := fs.String("trace", "", "record an event trace to FILE (.jsonl = JSON lines, otherwise Chrome trace_event JSON)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	tr := loadTrace(fs.Arg(0))
	traceOp := iotrace.Write
	if *op == "read" {
		traceOp = iotrace.Read
	}
	rp, err := iotrace.NewReplay(tr, traceOp)
	if err != nil {
		// A write-only trace replayed as read is still meaningful:
		// read back what was written.
		if *op == "read" {
			rp, err = iotrace.NewReplay(tr, iotrace.Write)
		}
		if err != nil {
			fatal(err)
		}
	}
	if rp.TotalBytes() == 0 {
		rp2, err2 := iotrace.NewReplay(tr, iotrace.Write)
		if err2 == nil && rp2.TotalBytes() > 0 && *op == "read" {
			rp = rp2
		} else {
			fatal(fmt.Errorf("trace has no %s requests", *op))
		}
	}
	nodes := (rp.NumRanks() + *cores - 1) / *cores

	mem := *memMB << 20
	mcfg := cluster.TestbedConfig(nodes)
	mcfg.CoresPerNode = *cores
	mcfg.MemPerNode = mem
	mcfg.MemSigma = float64(50*cluster.MB) / float64(mem)
	mcfg.MemFloor = mem / 4
	mcfg.Seed = *seed
	fcfg := pfs.DefaultConfig()
	fcfg.JitterMean = 12e-3
	fcfg.Seed = *seed

	if !strategy.Valid(*stratName) {
		fmt.Fprintf(os.Stderr, "mccio-trace: unknown strategy %q (want %s)\n", *stratName, strategy.List())
		os.Exit(2)
	}
	var opts core.Options
	if *stratName == strategy.MCCIO {
		opts = core.DefaultOptions(mcfg, fcfg)
		opts.Msggroup = rp.TotalBytes() / int64(maxInt(nodes/2, 1))
		opts.Memmin = mem / 4
	}
	s, err := adio.New(*stratName, opts, mem)
	if err != nil {
		fatal(err)
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}
	res, err := bench.RunOnce(bench.Spec{Strategy: s, Op: *op, Machine: mcfg, FS: fcfg, Workload: rp, Tracer: tracer})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replayed %s with %s %s on %d nodes x %d cores\n",
		fs.Arg(0), *stratName, *op, nodes, *cores)
	fmt.Println(res.String())
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if strings.HasSuffix(*traceOut, ".jsonl") {
			err = tracer.WriteJSONL(f)
		} else {
			err = tracer.WriteChrome(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", tracer.Len(), *traceOut)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
