package mpi

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/obs"
)

// SparseExchange is reusable per-communicator state for repeated
// sparse alltoall rounds. The plain AlltoallSparseInto walks all p pairwise
// steps probing vals/present, which makes a k-partner exchange cost
// O(p) host work per rank — O(p²) per round across the communicator —
// even when k is tiny (the common collective-I/O case: each rank talks
// to a few aggregators). SparseExchange keeps step-indexed bitmasks of
// staged sends and expected receives beside a list of the k staged
// sends and one of the k received values, so one round costs
// O(p/64 + k log k) time and the scratch holds O(p/64 + k) words: per
// rank, the masks are the only part that grows with the communicator.
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
	sends []staged   // this round's sends; sorted by step at Exchange
	recvd []received // the last Exchange's deliveries, ascending by source

	sendMask []uint64 // bit s: staged send to (rank+s)%p at step s
	recvMask []uint64 // bit s: expected receive from (rank-s+p)%p at step s
}

// staged is one send of a round: v, charged at n bytes, to the member
// step places after the sender.
type staged struct {
	step int
	v    any
	n    int64
}

// received is one value an Exchange delivered, and its source rank.
type received struct {
	src int
	v   any
}

// NewSparseExchange returns exchange scratch bound to c. The scratch is
// owned by the calling rank's collective; it is not safe to share.
func NewSparseExchange(c *Comm) *SparseExchange {
	words := (c.Size() + 63) / 64
	masks := make([]uint64, 2*words)
	return &SparseExchange{c: c, sendMask: masks[:words:words], recvMask: masks[words:]}
}

// Reset clears the previous round's staged sends and received values in
// O(active + p/64) time, releasing every payload reference.
func (x *SparseExchange) Reset() {
	clear(x.sends)
	clear(x.recvd)
	x.sends, x.recvd = x.sends[:0], x.recvd[:0]
	clear(x.sendMask)
	clear(x.recvMask)
}

// Stage queues v (charged at n bytes) for delivery to comm rank dst in
// the next Exchange; staging dst again replaces the earlier value. v
// must be non-nil; staging the caller's own rank models the local
// self-exchange.
func (x *SparseExchange) Stage(dst int, v any, n int64) {
	if v == nil {
		panic("mpi: SparseExchange.Stage with nil value")
	}
	x.c.checkRank(dst, "stage")
	s := dst - x.c.rank
	if s < 0 {
		s += len(x.c.group)
	}
	if x.sendMask[s/64]&(1<<(s%64)) != 0 {
		i := slices.IndexFunc(x.sends, func(e staged) bool { return e.step == s })
		x.sends[i].v, x.sends[i].n = v, n
		return
	}
	x.sendMask[s/64] |= 1 << (s % 64)
	x.sends = append(x.sends, staged{step: s, v: v, n: n})
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
	s := x.c.rank - src
	if s < 0 {
		s += len(x.c.group)
	}
	x.recvMask[s/64] |= 1 << (s % 64)
}

// Exchange runs the pairwise exchange over the staged/expected steps.
// Step order and the send-then-receive interleaving within a step match
// AlltoallSparseInto exactly, so virtual delivery times are identical.
func (x *SparseExchange) Exchange() {
	c := x.c
	p := len(c.group)
	const tag = tagAlltoall
	sp := c.Tracer().Begin(obs.PhaseMPIAlltoall, c.traceLoc())
	var sent, pairs int64
	slices.SortFunc(x.sends, func(a, b staged) int { return cmp.Compare(a.step, b.step) })
	// Room for every partner either way: a rank later hears from those it
	// sends to now (requests out, read pieces back), so one allocation lasts.
	n := len(x.sends)
	for _, w := range x.recvMask {
		n += bits.OnesCount64(w)
	}
	x.recvd = slices.Grow(x.recvd[:0], n)
	sends := x.sends
	if len(sends) > 0 && sends[0].step == 0 {
		x.recvd = append(x.recvd, received{src: c.rank, v: sends[0].v})
		if sends[0].n > 0 {
			c.w.intraPaths[c.NodeOf(c.rank)].Transfer(c.p, sends[0].n)
			sent += sends[0].n
			pairs++
		}
		sends = sends[1:]
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
				c.isend(dst, tag, sends[0].v, sends[0].n)
				sent += sends[0].n
				pairs++
				sends = sends[1:]
			}
			if rw&bit != 0 {
				src := c.rank - s
				if src < 0 {
					src += p
				}
				x.recvd = append(x.recvd, received{src: src, v: c.irecv(src, tag)})
			}
		}
	}
	slices.SortFunc(x.recvd, func(a, b received) int { return cmp.Compare(a.src, b.src) })
	sp.EndBytes(sent, pairs)
	c.w.met.alltoalls.Inc()
	c.w.met.alltoallBytes.Add(float64(sent))
}

// Received calls f for every value delivered by the last Exchange, in
// ascending source-rank order — the same order a scan over
// AlltoallSparseInto's result slice visits.
func (x *SparseExchange) Received(f func(src int, v any)) {
	for _, e := range x.recvd {
		f(e.src, e.v)
	}
}
