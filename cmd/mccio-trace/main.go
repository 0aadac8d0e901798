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
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/adio"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/iotrace"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// cli carries one invocation's output streams; its methods are the
// subcommands and return the process exit code: 0 success, 1
// operational failure, 2 usage error.
type cli struct {
	stdout, stderr io.Writer
}

// run dispatches the subcommand.
func run(args []string, stdout, stderr io.Writer) int {
	c := cli{stdout, stderr}
	if len(args) == 0 {
		return c.usage()
	}
	switch args[0] {
	case "gen":
		return c.gen(args[1:])
	case "stat":
		return c.stat(args[1:])
	case "run":
		return c.run(args[1:])
	}
	return c.usage()
}

func (c cli) usage() int {
	fmt.Fprintln(c.stderr, `usage:
  mccio-trace gen  -workload ior|collperf|random|checkpoint [-procs N] [-out FILE]
  mccio-trace stat FILE
  mccio-trace run  [-strategy `+strategy.List()+`] [-op write|read] [-mem SIZE] [-trace OUT] FILE
                   (-trace records an event trace: .jsonl = JSON lines, else Chrome JSON)`)
	return 2
}

func (c cli) fail(err error) int {
	fmt.Fprintf(c.stderr, "mccio-trace: %v\n", err)
	return 1
}

// badFlag reports an unusable flag value; exit code 2.
func (c cli) badFlag(format string, a ...any) int {
	fmt.Fprintf(c.stderr, "mccio-trace: "+format+"\n", a...)
	return c.usage()
}

func (c cli) gen(args []string) int {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	wlName := fs.String("workload", "ior", "ior | collperf | tile2d | random | checkpoint")
	procs := fs.Int("procs", 24, "ranks")
	blockKB := fs.Int64("block", 256, "ior block size, KB")
	segments := fs.Int("segments", 8, "ior segments")
	dim := fs.Int64("dim", 128, "collperf cube dimension")
	out := fs.String("out", "", "output file (default stdout)")
	seed := fs.Uint64("seed", 42, "seed for random workloads")
	if fs.Parse(args) != nil {
		return 2
	}
	if *procs <= 0 {
		return c.badFlag("-procs %d: must be positive", *procs)
	}

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
		return c.badFlag("unknown workload %q", *wlName)
	}
	tr := iotrace.FromWorkload(wl, iotrace.Write)
	w := c.stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return c.fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := tr.Write(w); err != nil {
		return c.fail(err)
	}
	fmt.Fprintf(c.stderr, "generated %d requests from %s\n", len(tr.Requests), wl.Name())
	return 0
}

func loadTrace(path string) (*iotrace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return iotrace.Parse(f)
}

func (c cli) stat(args []string) int {
	if len(args) != 1 {
		return c.usage()
	}
	tr, err := loadTrace(args[0])
	if err != nil {
		return c.fail(err)
	}
	s := iotrace.Analyze(tr)
	fmt.Fprintf(c.stdout, "ranks:        %d\n", s.Ranks)
	fmt.Fprintf(c.stdout, "requests:     %d (%.0f%% writes)\n", s.Requests, s.WriteShare*100)
	fmt.Fprintf(c.stdout, "bytes:        %.2f MB over file extent %.2f MB\n", float64(s.Bytes)/1e6, float64(s.FileExtent)/1e6)
	fmt.Fprintf(c.stdout, "request size: min %d, mean %.0f, max %d bytes\n", s.MinLen, s.MeanLen, s.MaxLen)
	fmt.Fprintf(c.stdout, "interleave:   %.2f contiguous-ownership runs per rank\n", s.Interleave)
	fmt.Fprintln(c.stdout, "size histogram:")
	keys := make([]string, 0, len(s.SizeBuckets))
	for k := range s.SizeBuckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(c.stdout, "  %-8s %d\n", k, s.SizeBuckets[k])
	}
	return 0
}

func (c cli) run(args []string) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	stratName := fs.String("strategy", strategy.MCCIO, strategy.List())
	op := fs.String("op", "write", "write | read")
	memMB := fs.Int64("mem", 8, "nominal aggregation memory per node, MB")
	cores := fs.Int("cores", 12, "cores per node")
	seed := fs.Uint64("seed", 42, "simulation seed")
	traceOut := fs.String("trace", "", "record an event trace to FILE (.jsonl = JSON lines, otherwise Chrome trace_event JSON)")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return c.usage()
	}
	if *cores <= 0 {
		return c.badFlag("-cores %d: must be positive", *cores)
	}
	if *memMB <= 0 {
		return c.badFlag("-mem %d: must be positive", *memMB)
	}
	if !strategy.Valid(*stratName) {
		return c.badFlag("unknown strategy %q (want %s)", *stratName, strategy.List())
	}
	tr, err := loadTrace(fs.Arg(0))
	if err != nil {
		return c.fail(err)
	}
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
			return c.fail(err)
		}
	}
	if rp.TotalBytes() == 0 {
		rp2, err2 := iotrace.NewReplay(tr, iotrace.Write)
		if err2 == nil && rp2.TotalBytes() > 0 && *op == "read" {
			rp = rp2
		} else {
			return c.fail(fmt.Errorf("trace has no %s requests", *op))
		}
	}
	nodes := (rp.NumRanks() + *cores - 1) / *cores

	mem := *memMB << 20
	mcfg := bench.TestbedMachine(nodes, mem, bench.SigmaBytes, *seed)
	mcfg.CoresPerNode = *cores
	fcfg := bench.TestbedFS(*seed)
	var opts core.Options
	if *stratName == strategy.MCCIO {
		opts = bench.MCCIOOptions(mcfg, fcfg, rp.TotalBytes(), mem)
	}
	s, err := adio.New(*stratName, opts, mem)
	if err != nil {
		return c.fail(err)
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}
	res, err := bench.RunOnce(bench.Spec{Strategy: s, Op: *op, Machine: mcfg, FS: fcfg, Workload: rp, Tracer: tracer})
	if err != nil {
		return c.fail(err)
	}
	fmt.Fprintf(c.stdout, "replayed %s with %s %s on %d nodes x %d cores\n",
		fs.Arg(0), *stratName, *op, nodes, *cores)
	fmt.Fprintln(c.stdout, res.String())
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return c.fail(err)
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
			return c.fail(err)
		}
		fmt.Fprintf(c.stderr, "wrote %d trace events to %s\n", tracer.Len(), *traceOut)
	}
	return 0
}
