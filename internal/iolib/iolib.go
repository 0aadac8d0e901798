// Package iolib is the MPI-IO-like middleware layer over the simulated
// parallel file system: file views (noncontiguous access patterns bound
// to a flat local buffer), independent I/O with data sieving, and the
// seam between planning and execution: a Collective strategy only
// plans, returning a Schedule, and Run is the one place that executes
// it. The collective strategies (two-phase, two-layer,
// memory-conscious) all plan a collio.Plan, which runs the shared
// aggregation rounds; Naive is independent I/O and its own Schedule.
package iolib

import (
	"repro/internal/buffer"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/trace"
)

// Collective is a collective I/O strategy, and a strategy only plans:
// Plan turns the calling rank's view into the communicator the
// operation runs on and the Schedule every rank of it shares; Run
// executes that schedule. op is "write" or "read"; view is the calling
// rank's file access pattern (canonical segment list). All ranks of c
// must call Plan with consistent arguments (the SPMD contract).
// Implementations fill m when non-nil.
type Collective interface {
	Name() string
	Plan(op string, c *mpi.Comm, view datatype.List, m *trace.Metrics) (*mpi.Comm, Schedule)
}

// Schedule is a planned collective operation. Run moves data between
// f and the calling rank's flat local buffer data, laid out as the
// concatenation of view's segments in file order, in direction op.
// Every rank of c, the communicator Plan returned, calls it with the
// same f; the simulated storage is engine-serialized, so the shared
// handle needs no locking.
type Schedule interface {
	Run(op string, f *pfs.File, c *mpi.Comm, view datatype.List, data buffer.Buf, m *trace.Metrics)
}

// Run executes one collective operation under barriers and returns the
// harness-level result: elapsed virtual time between the moment all
// ranks have entered and the moment all have left. op is "write" or
// "read". Exactly one rank (rank 0) receives the filled Result; other
// ranks receive a zero Result. Rank 0 folds its Result on the host, in
// no virtual time: before the closing barrier every rank deposits its
// byte count and a copy of its metrics in its own slot of one shared
// slice, and after it rank 0 sums and merges the slots in rank order.
func Run(s Collective, op string, f *pfs.File, c *mpi.Comm, view datatype.List, data buffer.Buf, m *trace.Metrics) trace.Result {
	if op != "write" && op != "read" {
		panic("iolib: op must be \"write\" or \"read\"")
	}
	c.Barrier()
	start := c.Now()
	sub, sched := s.Plan(op, c, view, m)
	sched.Run(op, f, sub, view, data, m)
	// Deposit before the barrier: ranks leave it in dispatch order, so
	// rank 0 may run on before its peers have.
	slots := mpi.Shared(c, func() []trace.Result { return make([]trace.Result, c.Size()) })
	slots[c.Rank()].Bytes = view.TotalBytes()
	if m != nil {
		slots[c.Rank()].Metrics = *m
	}
	// The closing barrier is inside the measured window, so trace it as a
	// top-level phase; the opening one above is not (start is taken after).
	sp := c.Tracer().Begin(obs.PhaseBarrier, obs.Loc{Rank: c.WorldRank(c.Rank()), Node: c.NodeOf(c.Rank()), Group: -1, Round: -1})
	c.Barrier()
	sp.End()
	if c.Rank() != 0 {
		return trace.Result{}
	}
	r := trace.Result{Elapsed: c.Now() - start}
	for _, v := range slots {
		r.Bytes += v.Bytes
		r.Metrics.Merge(v.Metrics)
	}
	r.Metrics.Strategy = s.Name()
	r.Metrics.Op = op
	return r
}
