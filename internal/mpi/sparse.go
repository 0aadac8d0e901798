package mpi

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/obs"
)

// SparseExchange is reusable per-communicator state for repeated
// sparse alltoall rounds: ROMIO's pairwise exchange, in which each rank
// talks to the few members it has data for or expects data from. It
// keeps step-indexed bitmasks of staged sends and expected receives
// beside a list of the k staged sends and one of the k received values,
// so one round costs O(p/64 + k log k) host time and the scratch holds
// O(p/64 + k) words: per rank, the masks are the only part that grows
// with the communicator. Exchange is an engine-driven task on the
// allgather's rule (ring.go), checked against the coroutine version
// sparse_test.go keeps: the owning process parks at most once.
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

	// The Exchange in progress between engine callbacks: where the
	// coroutine's program counter and locals would have been.
	resume      func() // x.advance, bound once
	seq         int    // exchanges run on the comm, this one included
	step        int    // the pairwise step; p once the exchange is done
	phase       agPhase
	left        []staged // sends not yet injected, ascending by step
	intra       bool     // this step's send stays on my node: I hand it over myself
	parked      bool     // the owning process is in Park, to be resumed on completion
	sent, pairs int64
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

// newSparseExchange returns exchange scratch bound to c (see
// Comm.SparseScratch). It is not safe to share.
func newSparseExchange(c *Comm) *SparseExchange {
	words := (c.Size() + 63) / 64
	masks := make([]uint64, 2*words)
	x := &SparseExchange{c: c, sendMask: masks[:words:words], recvMask: masks[words:]}
	x.resume = x.advance
	return x
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

// Grow makes room for n more sends in this round, so that staging a
// known number of them allocates at most once.
func (x *SparseExchange) Grow(n int) { x.sends = slices.Grow(x.sends, n) }

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

// Exchange runs the pairwise exchange over the staged/expected steps
// and returns once every expected value has arrived.
func (x *SparseExchange) Exchange() {
	c := x.c
	sp := c.Tracer().Begin(obs.PhaseMPIAlltoall, c.traceLoc())
	slices.SortFunc(x.sends, func(a, b staged) int { return cmp.Compare(a.step, b.step) })
	// Room for every partner either way: a rank later hears from those it
	// sends to now (requests out, read pieces back), so one allocation lasts.
	n := len(x.sends)
	for _, w := range x.recvMask {
		n += bits.OnesCount64(w)
	}
	x.recvd = slices.Grow(x.recvd[:0], n)
	x.seq++
	x.left, x.step, x.sent, x.pairs = x.sends, -1, 0, 0
	x.seek()
	if x.advance(); x.step < len(c.group) {
		x.parked = true
		c.p.Park(sparseWait{x})
	}
	slices.SortFunc(x.recvd, func(a, b received) int { return cmp.Compare(a.src, b.src) })
	sp.EndBytes(x.sent, x.pairs)
	c.w.met.alltoalls.Inc()
	c.w.met.alltoallBytes.Add(float64(x.sent))
}

// seek moves the exchange to its next step that sends or receives, or
// to step p if there is none.
func (x *SparseExchange) seek() {
	p := len(x.c.group)
	for s := x.step + 1; s < p; s = (s/64 + 1) * 64 {
		if both := (x.sendMask[s/64] | x.recvMask[s/64]) >> (s % 64); both != 0 {
			x.step, x.phase = s+bits.TrailingZeros64(both), agRecv
			if x.sendMask[s/64]&(1<<(x.step%64)) != 0 {
				x.phase = agSend
			}
			return
		}
	}
	x.step = p
}

// advance runs the exchange from wherever it stopped until it must wait
// again or finishes: on the caller's stack first, then as the callback
// of each continuation event. Per step it is the coroutine's blocking
// send (the self-exchange: a bus pass, if it carries bytes), then its
// blocking receive, whose landing schedules the continuation.
func (x *SparseExchange) advance() {
	c := x.c
	w := c.w
	p := len(c.group)
	for x.step < p {
		switch x.phase {
		case agSend:
			st, free := &x.left[0], w.engine.Now()
			if x.step == 0 {
				x.recvd = append(x.recvd, received{src: c.rank, v: st.v})
				if st.n > 0 {
					free = w.intraPaths[c.NodeOf(c.rank)].Reserve(free, st.n)
				}
			} else {
				var arrival float64
				dst := c.group[(c.rank+x.step)%p]
				if free, arrival, x.intra = w.inject(c.group[c.rank], dst, c.ctx, tagAlltoall, st.n); !x.intra {
					w.rx[dst].fly(w.engine, arrival, x.envelope(), w.rx[dst].land)
				}
			}
			x.phase = agSent
			if x.step != 0 || st.n > 0 {
				x.sent += st.n
				x.pairs++
				if !w.engine.ContinueAt(free, x.resume) {
					return
				}
			}
		case agSent:
			if x.intra {
				q := &w.rx[c.group[(c.rank+x.step)%p]]
				q.arrived(q.put(x.envelope()))
				x.intra = false
			}
			if x.left = x.left[1:]; x.recvMask[x.step/64]&(1<<(x.step%64)) != 0 {
				x.phase = agRecv
			} else {
				x.seek()
			}
		case agRecv:
			src := (c.rank - x.step + p) % p
			q, k := &w.rx[c.group[c.rank]], matchKey{ctx: c.ctx, src: int32(c.group[src]), tag: tagAlltoall}
			v, ok := q.take(k)
			if !ok {
				q.task, q.posted = x, msgKey{k, c.group[c.rank]}
				return
			}
			x.recvd = append(x.recvd, received{src: src, v: v})
			x.seek()
		}
	}
	if x.parked {
		x.parked = false
		w.engine.Resume(c.p)
	}
}

// envelope is the message of the current step's send.
func (x *SparseExchange) envelope() envelope {
	return envelope{key: matchKey{ctx: x.c.ctx, src: int32(x.c.group[x.c.rank]), tag: tagAlltoall}, payload: x.left[0].v}
}

// sparseWait is the owning process's wait reason while an exchange runs.
type sparseWait struct{ x *SparseExchange }

// String renders it: a stuck exchange always waits on a receive.
func (sw sparseWait) String() string {
	c, p, s := sw.x.c, len(sw.x.c.group), sw.x.step
	return fmt.Sprintf("sparse exchange #%d on comm%x: rank %d of %d at step %d of %d, receiving from rank %d",
		sw.x.seq, c.ctx, c.rank, p, s, p, (c.rank-s+p)%p)
}

// Received calls f for every value delivered by the last Exchange, in
// ascending source-rank order — the same order a scan over
// AlltoallSparseInto's result slice visits.
func (x *SparseExchange) Received(f func(src int, v any)) {
	for _, e := range x.recvd {
		f(e.src, e.v)
	}
}
