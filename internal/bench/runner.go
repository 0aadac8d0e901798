// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (Table 1, Figures 6–8) plus the
// ablation studies DESIGN.md calls out, on the simulated testbed.
//
// Each experiment sweeps the aggregation memory size, runs the baseline
// two-phase strategy and memory-conscious collective I/O on identical
// platforms, and reports application bandwidth in MB/s — the same rows
// the paper plots.
package bench

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/explain"
	"repro/internal/faults"
	"repro/internal/iolib"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Spec is one simulation run: a strategy applied to a workload on a
// platform.
type Spec struct {
	Strategy iolib.Collective
	Op       string // "write" or "read"
	Machine  cluster.Config
	FS       pfs.Config
	Workload workload.Workload
	// Verify runs with real data and checks every byte read back
	// (write runs are followed by a verified read). Only for small
	// functional runs; benchmarks use phantom payloads.
	Verify bool
	// Tracer, when non-nil, records event-level spans for the run. The
	// runner binds it to the engine's virtual clock and attaches it to
	// the machine; nil keeps tracing fully disabled.
	Tracer *obs.Tracer
	// Metrics, when non-nil, aggregates typed counters/gauges/histograms
	// for the run. The runner attaches it to the machine before the
	// file system and MPI world are built (they resolve instrument
	// handles at construction); nil keeps collection fully disabled.
	Metrics *metrics.Registry
	// Explain, when non-nil, receives the run's decision audit: planner
	// events (group division, bisections, remerges with reasons,
	// placements) and per-aggregator memory-ledger samples at round
	// boundaries. The runner binds it to the engine's virtual clock and
	// attaches it to the machine; nil keeps the audit fully disabled.
	Explain *explain.Recorder
	// Faults, when non-nil, injects the schedule's deterministic faults
	// into the run: the runner binds it to the run's observability sinks
	// and attaches it to the MPI delivery layer and the file system. Use
	// a fresh Schedule per run — exactly-once state lives inside it. nil
	// keeps the fault path fully disabled (zero cost).
	Faults *faults.Schedule
}

// RunOnce executes one collective operation and returns the global
// result (bandwidth, rounds, aggregators, traffic, memory stats).
func RunOnce(spec Spec) (trace.Result, error) {
	nprocs := spec.Workload.NumRanks()
	engine := simtime.NewEngine()
	machine, err := cluster.New(spec.Machine)
	if err != nil {
		return trace.Result{}, err
	}
	if nprocs > machine.NumRanks() {
		return trace.Result{}, fmt.Errorf("bench: workload needs %d ranks, machine has %d", nprocs, machine.NumRanks())
	}
	if spec.Faults != nil {
		// Only the nodes the run's ranks occupy count: a fault on any
		// other node would be counted as injected and perturb nothing.
		nodes := 0
		for r := 0; r < nprocs; r++ {
			nodes = max(nodes, machine.NodeOfRank(r)+1)
		}
		if err := spec.Faults.Spec().Fits(nodes, nprocs, spec.FS.OSTs); err != nil {
			return trace.Result{}, err
		}
	}
	// Attach observability sinks before the file system and MPI world
	// are built: both resolve their instrument handles at construction.
	if spec.Tracer != nil {
		spec.Tracer.SetClock(engine.Now)
		machine.SetTracer(spec.Tracer)
	}
	if spec.Metrics != nil {
		machine.SetMetrics(spec.Metrics)
	}
	if spec.Explain != nil {
		spec.Explain.SetClock(engine.Now)
		machine.SetExplain(spec.Explain)
	}
	fs, err := pfs.New(spec.FS, machine)
	if err != nil {
		return trace.Result{}, err
	}
	world, err := mpi.NewWorld(engine, machine, nprocs)
	if err != nil {
		return trace.Result{}, err
	}
	if spec.Faults != nil {
		spec.Faults.Bind(spec.Metrics, spec.Tracer)
		world.SetFaults(spec.Faults)
		fs.SetFaults(spec.Faults)
	}
	file := fs.Open("bench.dat")

	var res trace.Result
	var verifyErr error
	world.Start(func(c *mpi.Comm) {
		view := spec.Workload.View(c.Rank())
		data := buffer.New(view.TotalBytes(), !spec.Verify)
		if spec.Verify {
			fillView(view, data, uint64(c.Rank()))
		}
		if spec.Op == "read" && spec.Verify {
			// Seed the file so the verified read has bytes to fetch.
			c.Barrier()
			if err := seedFile(file, c, view, uint64(c.Rank())); err != nil && verifyErr == nil {
				verifyErr = err
			}
			c.Barrier()
		}
		r := iolib.Run(spec.Strategy, spec.Op, file, c, view, data, &trace.Metrics{})
		if c.Rank() == 0 {
			res = r
		}
		if spec.Verify {
			if err := verifyAfter(spec.Op, file, c, view, data, uint64(c.Rank())); err != nil && verifyErr == nil {
				verifyErr = err
			}
		}
	})
	if err := engine.Run(); err != nil {
		return trace.Result{}, err
	}
	if verifyErr != nil {
		return trace.Result{}, verifyErr
	}
	return res, nil
}

// RunOncePhases executes spec with a fresh tracer attached and returns
// the result together with the trace's phase-breakdown summary.
func RunOncePhases(spec Spec) (trace.Result, *obs.Summary, error) {
	tr := obs.NewTracer()
	spec.Tracer = tr
	res, err := RunOnce(spec)
	if err != nil {
		return trace.Result{}, nil, err
	}
	return res, obs.Summarize(tr.Events()), nil
}

// fillView lays the per-offset pattern into a flat view buffer.
func fillView(view datatype.List, data buffer.Buf, tag uint64) {
	var pos int64
	for _, s := range view {
		data.Slice(pos, s.Len).Fill(tag, s.Off)
		pos += s.Len
	}
}

// seedFile writes the rank's pattern independently before a read test.
func seedFile(f *pfs.File, c *mpi.Comm, view datatype.List, tag uint64) error {
	data := buffer.NewReal(view.TotalBytes())
	fillView(view, data, tag)
	iolib.WriteIndependent(f, c.Proc(), c.WorldRank(c.Rank()), view, data, iolib.SieveOptions{})
	return nil
}

// verifyAfter checks the operation's bytes: after a read, the
// destination buffer; after a write, the file contents re-read
// independently.
func verifyAfter(op string, f *pfs.File, c *mpi.Comm, view datatype.List, data buffer.Buf, tag uint64) error {
	check := data
	if op == "write" {
		c.Barrier()
		check = buffer.NewReal(view.TotalBytes())
		iolib.ReadIndependent(f, c.Proc(), c.WorldRank(c.Rank()), view, check, iolib.SieveOptions{BufSize: 4 << 20})
	}
	var pos int64
	for _, s := range view {
		if i := check.Slice(pos, s.Len).Verify(tag, s.Off); i != -1 {
			return fmt.Errorf("bench: rank %d %s verification failed in %v at byte %d", c.Rank(), op, s, i)
		}
		pos += s.Len
	}
	return nil
}
