package iolib

import (
	"repro/internal/buffer"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// Naive is the no-coordination comparator: every rank performs its own
// independent (data-sieved) I/O. It satisfies Collective so harnesses
// can sweep it alongside the real strategies; the paper's §2 argument —
// independent I/O can't exploit cross-process request structure — shows
// up as its poor bandwidth on interleaved patterns.
type Naive struct {
	Opts SieveOptions
}

// Name implements Collective.
func (n Naive) Name() string { return strategy.Independent }

// Plan implements Collective: there is nothing to coordinate, so the
// schedule is n itself on the caller's communicator.
func (n Naive) Plan(op string, c *mpi.Comm, view datatype.List, m *trace.Metrics) (*mpi.Comm, Schedule) {
	return c, n
}

// Run implements Schedule: the rank's own sieved I/O.
func (n Naive) Run(op string, f *pfs.File, c *mpi.Comm, view datatype.List, data buffer.Buf, m *trace.Metrics) {
	t0 := c.Now()
	if op == "write" {
		WriteIndependent(f, c.Proc(), c.WorldRank(c.Rank()), view, data, n.Opts)
	} else {
		ReadIndependent(f, c.Proc(), c.WorldRank(c.Rank()), view, data, n.Opts)
	}
	if m != nil {
		m.BytesIO += view.TotalBytes()
		m.IOSeconds += c.Now() - t0
	}
}
