package mpi

import (
	"math/bits"

	"repro/internal/obs"
)

// SparseExchange is reusable per-communicator state for repeated
// sparse alltoall rounds. The plain AlltoallSparseInto walks all p pairwise
// steps probing vals/present, which makes a k-partner exchange cost
// O(p) host work per rank — O(p²) per round across the communicator —
// even when k is tiny (the common collective-I/O case: each rank talks
// to a few aggregators). SparseExchange keeps step-indexed bitmasks of
// staged sends and expected receives, so one round costs O(p/64 + k)
// and reuses every backing array.
//
// The virtual-time semantics are exactly AlltoallSparseInto's: the same
// pairwise step order, the same send-before-receive interleaving
// within a step, the same self-exchange bus charge. A staged value is
// delivered at the identical virtual instant either way.
//
// Usage per round: Reset, then any mix of Stage/Expect, then Exchange,
// then Received. The exchange must be collective — every member runs
// the same round in the same order (the usual SPMD contract).
type SparseExchange struct {
	c     *Comm
	vals  []any
	bytes []int64
	out   []any

	sendMask []uint64 // bit s: staged send to (rank+s)%p at step s
	recvMask []uint64 // bit s: expected receive from (rank-s+p)%p at step s
	srcMask  []uint64 // bit r: out[r] holds a received value (rank order)
}

// NewSparseExchange returns exchange scratch bound to c. The scratch is
// owned by the calling rank's collective; it is not safe to share.
func NewSparseExchange(c *Comm) *SparseExchange {
	p := c.Size()
	words := (p + 63) / 64
	return &SparseExchange{
		c:        c,
		vals:     make([]any, p),
		bytes:    make([]int64, p),
		out:      make([]any, p),
		sendMask: make([]uint64, words),
		recvMask: make([]uint64, words),
		srcMask:  make([]uint64, words),
	}
}

// Reset clears the previous round's staged sends and received values in
// O(active + p/64) time, releasing every payload reference.
func (x *SparseExchange) Reset() {
	p := len(x.vals)
	rank := x.c.rank
	for w, word := range x.sendMask {
		for word != 0 {
			s := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			dst := rank + s
			if dst >= p {
				dst -= p
			}
			x.vals[dst] = nil
			x.bytes[dst] = 0
		}
		x.sendMask[w] = 0
	}
	for w, word := range x.srcMask {
		for word != 0 {
			src := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			x.out[src] = nil
		}
		x.srcMask[w] = 0
	}
	for w := range x.recvMask {
		x.recvMask[w] = 0
	}
}

// Stage queues v (charged at n bytes) for delivery to comm rank dst in
// the next Exchange. v must be non-nil; staging the caller's own rank
// models the local self-exchange.
func (x *SparseExchange) Stage(dst int, v any, n int64) {
	if v == nil {
		panic("mpi: SparseExchange.Stage with nil value")
	}
	x.c.checkRank(dst, "stage")
	p := len(x.vals)
	s := dst - x.c.rank
	if s < 0 {
		s += p
	}
	x.sendMask[s/64] |= 1 << (s % 64)
	x.vals[dst] = v
	x.bytes[dst] = n
}

// Expect declares that comm rank src will stage a value for us this
// round. Like AlltoallSparseInto's present slice it must mirror the
// sender's decision exactly; both sides compute it from the same global
// metadata. Expecting one's own rank is a no-op (self-delivery is
// implied by Stage).
func (x *SparseExchange) Expect(src int) {
	x.c.checkRank(src, "expect")
	if src == x.c.rank {
		return
	}
	p := len(x.vals)
	s := x.c.rank - src
	if s < 0 {
		s += p
	}
	x.recvMask[s/64] |= 1 << (s % 64)
	x.srcMask[src/64] |= 1 << (src % 64)
}

// Exchange runs the pairwise exchange over the staged/expected steps.
// Step order and the send-then-receive interleaving within a step match
// AlltoallSparseInto exactly, so virtual delivery times are identical.
func (x *SparseExchange) Exchange() {
	c := x.c
	p := len(x.vals)
	const tag = tagAlltoall
	sp := c.Tracer().Begin(obs.PhaseMPIAlltoall, c.traceLoc())
	var sent, pairs int64
	if x.sendMask[0]&1 != 0 {
		x.out[c.rank] = x.vals[c.rank]
		x.srcMask[c.rank/64] |= 1 << (c.rank % 64)
		if x.bytes[c.rank] > 0 {
			c.w.intraPaths[c.NodeOf(c.rank)].Transfer(c.p, x.bytes[c.rank])
			sent += x.bytes[c.rank]
			pairs++
		}
	}
	for w := range x.sendMask {
		sw, rw := x.sendMask[w], x.recvMask[w]
		if w == 0 {
			sw &^= 1 // self handled above
		}
		both := sw | rw
		for both != 0 {
			s := w*64 + bits.TrailingZeros64(both)
			both &= both - 1
			bit := uint64(1) << (s % 64)
			if sw&bit != 0 {
				dst := c.rank + s
				if dst >= p {
					dst -= p
				}
				c.isend(dst, tag, x.vals[dst], x.bytes[dst])
				sent += x.bytes[dst]
				pairs++
			}
			if rw&bit != 0 {
				src := c.rank - s
				if src < 0 {
					src += p
				}
				x.out[src] = c.irecv(src, tag)
			}
		}
	}
	sp.EndBytes(sent, pairs)
	c.w.met.alltoalls.Inc()
	c.w.met.alltoallBytes.Add(float64(sent))
}

// Received calls f for every value delivered by the last Exchange, in
// ascending source-rank order — the same order a scan over
// AlltoallSparseInto's result slice visits.
func (x *SparseExchange) Received(f func(src int, v any)) {
	for w, word := range x.srcMask {
		for word != 0 {
			src := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			f(src, x.out[src])
		}
	}
}
