// Command mccio-trace generates and inspects I/O traces — the bridge
// between real application patterns and the simulator, which replays
// them (mccio-sim TRACE).
//
//	mccio-trace gen -workload ior -procs 24 -out ior.trace
//	mccio-trace stat ior.trace
//	mccio-sim -strategy mccio -mem 8MB ior.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/iotrace"
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
	}
	return c.usage()
}

func (c cli) usage() int {
	fmt.Fprintln(c.stderr, `usage:
  mccio-trace gen  -workload ior|collperf|random|checkpoint [-procs N] [-out FILE]
  mccio-trace stat FILE
(replay a trace with mccio-sim [flags] FILE)`)
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
