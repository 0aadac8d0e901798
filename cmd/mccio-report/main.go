// Command mccio-report turns recorded observability artifacts into
// human-readable reports.
//
//	mccio-report summarize TRACE-FILE
//	  Aggregate an event trace (Chrome trace_event JSON or JSONL,
//	  auto-detected) into the phase-breakdown report: per-phase and
//	  per-round seconds, per-group exchange traffic, per-node memory
//	  high-water marks.
//
//	mccio-report compare [-threshold PCT] OLD.json NEW.json
//	  Diff two bench trajectories written by mccio-bench -json and
//	  print the per-experiment bandwidth deltas. Exits 1 when any
//	  experiment's bandwidth fell more than PCT percent (default 10),
//	  which is how CI gates regressions.
//
//	mccio-report explain EXPLAIN-FILE
//	  Render a decision log written by mccio-sim/mccio-bench -explain
//	  as annotated ASCII partition trees — every remerge inline with
//	  its reason (candidate hosts, their Mem_avl, the failed
//	  threshold) and every placement with its winner and headroom —
//	  plus a per-decision "why" table and the decision-count summary.
//
//	mccio-report memtl EXPLAIN-FILE
//	  Render the same log's per-aggregator memory timeline as a
//	  terminal heatmap (nodes x rounds, shaded by ledger utilization).
//
// A bare trace-file argument (mccio-report run.json) is accepted as
// shorthand for summarize, for compatibility with earlier versions.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/explain"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  mccio-report summarize TRACE-FILE
  mccio-report compare [-threshold PCT] [-host [-host-ns-tol PCT] [-host-alloc-tol PCT]] OLD.json NEW.json
  mccio-report explain EXPLAIN-FILE
  mccio-report memtl EXPLAIN-FILE

summarize aggregates an event trace written by mccio-sim -trace
(Chrome trace_event JSON or JSONL; auto-detected) into the phase
breakdown. compare diffs two bench trajectories written by
mccio-bench -json and exits 1 if any experiment regressed more than
the threshold; with -host it additionally gates the host-cost columns
recorded by mccio-bench -host (wall time and allocations, each with
its own tolerance band). explain renders a decision log written by
mccio-sim/mccio-bench -explain as an annotated partition tree with
remerge reasons and a per-decision "why" table; memtl renders the
same log's per-aggregator memory timeline as a terminal heatmap.
A bare TRACE-FILE argument implies summarize.`)
}

// run dispatches the subcommand and returns the process exit code:
// 0 success, 1 operational failure (including detected regressions),
// 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "summarize":
		return summarize(args[1:], stdout, stderr)
	case "compare":
		return compare(args[1:], stdout, stderr)
	case "explain":
		return explainCmd(args[1:], stdout, stderr)
	case "memtl":
		return memtlCmd(args[1:], stdout, stderr)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	}
	// Back-compat: a single non-flag argument naming an existing file
	// is the old "mccio-report TRACE" spelling.
	if len(args) == 1 && !strings.HasPrefix(args[0], "-") {
		if _, err := os.Stat(args[0]); err == nil {
			return summarize(args, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "mccio-report: unknown subcommand or file %q\n\n", args[0])
	usage(stderr)
	return 2
}

func summarize(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summarize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		usage(stderr)
		return 2
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "mccio-report: %v\n", err)
		return 1
	}
	defer f.Close()
	events, err := obs.ParseAuto(f)
	if err != nil {
		fmt.Fprintf(stderr, "mccio-report: %v\n", err)
		return 1
	}
	if len(events) == 0 {
		fmt.Fprintf(stderr, "mccio-report: %s contains no events\n", path)
		return 1
	}
	fmt.Fprintf(stdout, "%s: %d events\n", path, len(events))
	obs.Summarize(events).WriteText(stdout)
	return 0
}

// loadExplain parses one decision-log argument for explain/memtl.
func loadExplain(fsName string, args []string, stderr io.Writer) ([]explain.Event, int) {
	fs := flag.NewFlagSet(fsName, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		return nil, 2
	}
	if fs.NArg() != 1 {
		usage(stderr)
		return nil, 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "mccio-report: %v\n", err)
		return nil, 1
	}
	defer f.Close()
	events, err := explain.ParseJSONL(f)
	if err != nil {
		fmt.Fprintf(stderr, "mccio-report: %v\n", err)
		return nil, 1
	}
	if len(events) == 0 {
		fmt.Fprintf(stderr, "mccio-report: %s contains no decision events\n", fs.Arg(0))
		return nil, 1
	}
	return events, 0
}

func explainCmd(args []string, stdout, stderr io.Writer) int {
	events, code := loadExplain("explain", args, stderr)
	if code != 0 {
		return code
	}
	explain.RenderExplain(stdout, events)
	explain.Summarize(events).WriteText(stdout)
	return 0
}

func memtlCmd(args []string, stdout, stderr io.Writer) int {
	events, code := loadExplain("memtl", args, stderr)
	if code != 0 {
		return code
	}
	explain.RenderMemTL(stdout, events)
	return 0
}

func compare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr) }
	threshold := fs.Float64("threshold", 10, "regression threshold in percent bandwidth drop")
	host := fs.Bool("host", false, "also gate the host-cost columns (host_ns_op, host_allocs_op); both trajectories must have been recorded with mccio-bench -host")
	hostNsTol := fs.Float64("host-ns-tol", 300, "with -host: fail when a row's wall time grows more than this percent (wide band — wall clock varies with hardware)")
	hostAllocTol := fs.Float64("host-alloc-tol", 25, "with -host: fail when a row's allocation count grows more than this percent (tight band — allocs are near-deterministic per binary)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		usage(stderr)
		return 2
	}
	if *threshold < 0 {
		fmt.Fprintf(stderr, "mccio-report: negative threshold %g\n", *threshold)
		return 2
	}
	old, err := bench.ReadBenchFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "mccio-report: %v\n", err)
		return 1
	}
	cur, err := bench.ReadBenchFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "mccio-report: %v\n", err)
		return 1
	}
	table, regressed, err := bench.CompareBench(old, cur, *threshold)
	if err != nil {
		fmt.Fprintf(stderr, "mccio-report: %v\n", err)
		return 1
	}
	table.WriteText(stdout)
	code := 0
	if regressed > 0 {
		fmt.Fprintf(stderr, "mccio-report: %d experiment(s) regressed more than %.1f%%\n", regressed, *threshold)
		code = 1
	}
	if *host {
		htable, hregressed, err := bench.CompareHost(old, cur, *hostNsTol, *hostAllocTol)
		if err != nil {
			fmt.Fprintf(stderr, "mccio-report: %v\n", err)
			return 1
		}
		htable.WriteText(stdout)
		if hregressed > 0 {
			fmt.Fprintf(stderr, "mccio-report: %d experiment(s) regressed on host cost (bands: wall +%.0f%%, allocs +%.0f%%)\n",
				hregressed, *hostNsTol, *hostAllocTol)
			code = 1
		}
	}
	return code
}
