// Command mccio-bench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	mccio-bench -experiment all            # Table 1 + Figures 6,7,8 + ablations
//	mccio-bench -experiment fig7 -scale 0.25
//	mccio-bench -experiment fig8 -csv out.csv
//	mccio-bench -experiment regression -sites sites.json
//	mccio-bench -experiment regression -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/explain"
	"repro/internal/metrics"
)

// flushProfiles stops the run's profile capture, if any, and writes
// the -cpuprofile/-memprofile files; every exit path must run it
// because os.Exit skips deferred calls.
var flushProfiles = func() error { return nil }

// writeProfiles stops capture and writes its raw CPU and allocation
// profiles to the paths named ("" = not requested).
func writeProfiles(capture *bench.SiteCapture, cpuPath, memPath string) error {
	if err := capture.Stop(); err != nil {
		return err
	}
	for _, p := range []struct {
		path string
		raw  []byte
	}{{cpuPath, capture.CPU}, {memPath, capture.Allocs}} {
		if p.path == "" {
			continue
		}
		if err := os.WriteFile(p.path, p.raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", p.path)
	}
	return nil
}

// fail reports err and terminates with code after flushing profiles.
func fail(code int, err error) {
	fmt.Fprintf(os.Stderr, "mccio-bench: %v\n", err)
	if err := flushProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "mccio-bench: %v\n", err)
	}
	os.Exit(code)
}

// writeTo creates path and lets write fill it.
func writeTo(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(1, err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail(1, err)
	}
}

func main() {
	var (
		experiment = flag.String("experiment", "all", strings.Join(bench.ExperimentNames(), " | ")+" | all")
		scale      = flag.Float64("scale", 1.0, "workload scale factor (1.0 = default experiment size)")
		seed       = flag.Uint64("seed", 42, "seed for memory variance and storage jitter")
		parallel   = flag.Int("parallel", 0, "concurrent simulation runs per experiment (0 = GOMAXPROCS, 1 = serial); results are byte-identical for every value")
		csvPath    = flag.String("csv", "", "also write results as CSV to this file")
		quiet      = flag.Bool("quiet", false, "suppress per-run progress lines")
		jsonPath   = flag.String("json", "", "write the trajectory of -experiment strategies | regression | sweep (schema-versioned bench JSON) to this file; implies -experiment regression unless one is named, and any other experiment is a usage error")
		serveAddr  = flag.String("serve", "", "serve Prometheus metrics on ADDR at /metrics during the runs and keep serving afterwards until interrupted")
		pprofOn    = flag.Bool("pprof", false, "with -serve, also mount live profiling handlers under /debug/pprof/")
		topN       = flag.Int("top", 15, "sites per table for -sites")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (pprof format)")
		memProf    = flag.String("memprofile", "", "write the allocation profile of the whole run to this file (pprof format)")
		explPath   = flag.String("explain", "", "with -experiment strategies | regression | sweep, record the planner decision audit of every row to FILE as JSONL (render with mccio-report explain/memtl); byte-identical for every -parallel value; implies -experiment regression unless one is named")
		hostOn     = flag.Bool("host", false, "with -experiment strategies | regression | sweep, record host wall-clock and allocation columns (host_ns_op, host_allocs_op) per trajectory row (written by -json); forces serial execution and is gated separately from the deterministic columns (mccio-report compare -host); implies -experiment regression unless one is named")
		sitesPath  = flag.String("sites", "", "capture a CPU+allocation profile across the whole run and write the decoded top-site tables (machine-readable JSON, -top sites each) to this file; combines with -cpuprofile and -memprofile, which write the same capture's raw profiles")
	)
	flag.Parse()

	// Resolve the name before anything starts: a typo, or a flag the
	// experiment would silently ignore, must not cost a profile file, a
	// listening socket or a run.
	var trajectoryFlags []string
	if *jsonPath != "" {
		trajectoryFlags = append(trajectoryFlags, "-json")
	}
	if *hostOn {
		trajectoryFlags = append(trajectoryFlags, "-host")
	}
	if *explPath != "" {
		trajectoryFlags = append(trajectoryFlags, "-explain")
	}
	selected, err := bench.SelectExperiments(*experiment, trajectoryFlags...)
	if err != nil {
		fail(2, err)
	}

	// One capture serves every profile flag.
	var capture *bench.SiteCapture
	if *cpuProf != "" || *memProf != "" || *sitesPath != "" {
		if capture, err = bench.StartSiteCapture(); err != nil {
			fail(1, err)
		}
		flushProfiles = sync.OnceValue(func() error { return writeProfiles(capture, *cpuProf, *memProf) })
	}

	opts := bench.Options{Scale: *scale, Seed: *seed, Parallel: *parallel, HostMetrics: *hostOn}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	if *explPath != "" {
		opts.Explain = explain.NewRecorder()
	}

	reg := metrics.New()
	var expo *metrics.Exposition
	if *serveAddr != "" {
		if expo, err = metrics.StartExposition(*serveAddr, reg, *pprofOn, os.Stderr); err != nil {
			fail(1, err)
		}
	}

	var tables []*bench.Table
	for _, e := range selected {
		fmt.Fprintf(os.Stderr, "running %s (scale %.3g, parallel %d)...\n", e.Name, *scale, *parallel)
		t, traj, err := e.Run(opts, reg)
		if err != nil {
			fail(1, fmt.Errorf("%s: %w", e.Name, err))
		}
		tables = append(tables, t)
		if traj != nil && *jsonPath != "" {
			traj.Created = time.Now().UTC().Format(time.RFC3339)
			if err := bench.WriteBenchFile(*jsonPath, traj); err != nil {
				fail(1, err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
		}
	}
	if rec := opts.Explain; rec != nil {
		writeTo(*explPath, func(f *os.File) error { return rec.WriteJSONL(f) })
		fmt.Fprintf(os.Stderr, "wrote %d decision events to %s\n", rec.Len(), *explPath)
	}
	if err := flushProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "mccio-bench: %v\n", err)
		os.Exit(1)
	}
	if *sitesPath != "" {
		rep, err := capture.Report(*topN)
		if err != nil {
			fail(1, fmt.Errorf("sites: %w", err))
		}
		rep.Scale, rep.Seed = *scale, *seed
		tables = append(tables, rep.Tables()...)
		writeTo(*sitesPath, func(f *os.File) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		})
		fmt.Fprintf(os.Stderr, "wrote %s\n", *sitesPath)
	}

	for _, t := range tables {
		t.WriteText(os.Stdout)
	}
	if *csvPath != "" {
		writeTo(*csvPath, func(f *os.File) error {
			for _, t := range tables {
				t.WriteCSV(f)
				io.WriteString(f, "\n")
			}
			return nil
		})
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
	if expo != nil {
		expo.Block(os.Stderr, "runs complete; still serving /metrics — interrupt to exit")
	}
}
