// Command benchmarks is the repo benchmark: four workloads that measure
// the simulator and the plan service strictly from outside — through
// bench.RunOnce and an in-process pland daemon on loopback — with the
// benchmark's own workload and load generators.
//
//	go run ./benchmarks -workload <name|all> -seed <n> [-trace]
//
// prints every metric by name with its unit, checks the program's
// outputs and exits non-zero on a correctness failure. The last line of
// standard output is one JSON object (see README.md); run as
// `--workload <name> --seed <n> --seconds <s> --trace <0|1>` it is the
// benchmark contract's result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// processStart is where setup_s starts counting.
var processStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// normalizeTraceArg lets the boolean -trace flag also be given as
// `-trace 0` / `-trace 1`, which package flag would read as a bare
// -trace followed by a positional argument.
func normalizeTraceArg(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmarks", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var passes, slices int
	var jsonPath string
	var aa bool
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 42, "seed of every generated input")
	fs.BoolVar(&o.trace, "trace", false, "after the timed phase, make the traced pass and print the per-layer ledger")
	fs.Float64Var(&o.seconds, "seconds", 0, "time the passes/slices for this many seconds instead of running the default count")
	fs.IntVar(&passes, "passes", 0, "timed passes of a sim-* workload (0 = its default)")
	fs.IntVar(&slices, "slices", 0, "timed slices of a serve-* workload (0 = its default)")
	fs.BoolVar(&o.smoke, "smoke", false, "run every workload at a tiny scale (functional check only)")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "trace"), "directory the traced pass writes spans.json and cpu.pprof under")
	fs.StringVar(&jsonPath, "json", "", "also write the reports as JSON to this file")
	fs.BoolVar(&aa, "aa", false, "self-check: run two full sets back to back and compare them against the bounds")
	if err := fs.Parse(normalizeTraceArg(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmarks: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if _, err := newScenario(n, o.seed, o.smoke); err != nil {
			fmt.Fprintln(stderr, "benchmarks:", err)
			return 2
		}
	}
	countFor := func(name string) int {
		if strings.HasPrefix(name, "sim-") {
			return passes
		}
		return slices
	}

	if aa {
		return runAA(names, o, countFor, stdout, stderr)
	}
	var reports []*report
	if len(names) == 1 {
		o.passes = countFor(names[0])
		o.outDir = filepath.Join(o.outDir, names[0])
		rep, err := runWorkload(o, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmarks:", err)
			return 1
		}
		reports = append(reports, rep)
	} else {
		// Each workload runs in a process of its own, so its peak RSS
		// and set-up time are its own.
		for _, n := range names {
			rep, err := runChild(n, o, countFor(n), stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmarks:", err)
				return 1
			}
			reports = append(reports, rep)
		}
	}
	for _, rep := range reports {
		printReport(stdout, rep)
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, reports); err != nil {
			fmt.Fprintln(stderr, "benchmarks:", err)
			return 1
		}
	}
	failed := false
	if len(reports) == 1 {
		line, _ := json.Marshal(resultLine(reports[0], o.trace))
		fmt.Fprintf(stdout, "%s\n", line)
		failed = reports[0].Failed > 0
	} else {
		lines := make(map[string]any, len(reports))
		for _, rep := range reports {
			lines[rep.Workload] = resultLine(rep, o.trace)
			failed = failed || rep.Failed > 0
		}
		line, _ := json.Marshal(lines)
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed {
		return 1
	}
	return 0
}

// runChild re-executes this binary for one workload and reads its
// report back through a JSON file.
func runChild(name string, o options, count int, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.outDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	reportPath := filepath.Join(dir, "report.json")
	args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-json", reportPath, "-out", o.outDir,
		fmt.Sprintf("-trace=%t", o.trace), fmt.Sprintf("-smoke=%t", o.smoke), "-seconds", fmt.Sprint(o.seconds)}
	if strings.HasPrefix(name, "sim-") {
		args = append(args, "-passes", fmt.Sprint(count))
	} else {
		args = append(args, "-slices", fmt.Sprint(count))
	}
	fmt.Fprintf(stderr, "%s (seed %d)\n", name, o.seed)
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = io.Discard, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return nil, err
	}
	var reports []*report
	if err := json.Unmarshal(data, &reports); err != nil || len(reports) != 1 {
		return nil, fmt.Errorf("%s: unreadable child report: %v", name, err)
	}
	return reports[0], nil
}

func writeJSON(path string, reports []*report) error {
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// result is the benchmark contract's result line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine projects a report onto the contract: the end-to-end
// metrics of an untraced run, the per-layer ledger of a traced one.
func resultLine(rep *report, traced bool) result {
	r := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]resultValue{}}
	vals := rep.EndToEnd
	if traced {
		vals = rep.PerLayer
	}
	for _, v := range vals {
		r.Metrics[v.Name] = resultValue{Value: v.Value, Unit: v.Unit}
	}
	return r
}

// printReport is the text table: every metric by name with its unit,
// sample counts beside the percentiles, per-pass values so the spread
// is visible, and the run's sizing so a shortened run can never be
// mistaken for a full one.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "\n== %s (seed %d) ==\n%s\n", rep.Workload, rep.Seed, rep.Description)
	sizing := fmt.Sprintf("%d timed %s(s) (default %d) x %d ops", rep.Passes, rep.Unit, rep.DefaultPasses, rep.OpsPerPass)
	if rep.Seconds > 0 {
		sizing += fmt.Sprintf(", sized by -seconds %g", rep.Seconds)
	}
	if rep.Smoke {
		sizing += ", SMOKE SCALE: not a measurement"
	}
	fmt.Fprintf(w, "%s; set-up run %d time(s); telemetry sinks and tracing off\n", sizing, rep.SetupRuns)
	fmt.Fprintf(w, "%-34s %14s %-6s %8s  %s\n", "end-to-end metric", "value", "unit", "samples", "per "+rep.Unit)
	for _, v := range rep.EndToEnd {
		fmt.Fprintf(w, "%-34s %14.4f %-6s %8s  %s\n", v.Name, v.Value, v.Unit, samplesText(v.Samples), perPassText(v.PerPass))
	}
	fmt.Fprintf(w, "%-34s %14.6f %-6s %8d  failed %d of %d\n", "failed_share", rep.FailedShare, "ratio", rep.Attempted, rep.Failed, rep.Attempted)
	if rep.ModelGain > 0 {
		fmt.Fprintf(w, "%-34s %14.6f %-6s %8s  simulated bandwidth mccio / two-phase, geometric mean\n", "model_gain", rep.ModelGain, "ratio", "")
	}
	if rep.FirstError != "" {
		fmt.Fprintf(w, "first failure: %s\n", rep.FirstError)
	}
	if len(rep.PerLayer) == 0 {
		return
	}
	allocs := make(map[string]float64, len(rep.Micro))
	for _, m := range rep.Micro {
		allocs[m.Name] = m.Allocs
	}
	fmt.Fprintf(w, "%-34s %14s %-6s\n", "per-layer metric (traced pass)", "value", "unit")
	for _, v := range rep.PerLayer {
		fmt.Fprintf(w, "%-34s %14.4f %-6s", v.Name, v.Value, v.Unit)
		if a, ok := allocs[v.Name]; ok {
			fmt.Fprintf(w, "  %.3f allocs/unit", a)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "count", "total s", "self s")
	for _, s := range rep.Spans {
		fmt.Fprintf(w, "%-34s %8d %12.4f %12.4f\n", s.Name, s.Count, s.TotalS, s.SelfS)
	}
	fmt.Fprintf(w, "spans and CPU profile written to %s\n", rep.TraceDir)
}

func samplesText(n int) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprint(n)
}

func perPassText(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return strings.Join(parts, " ")
}
