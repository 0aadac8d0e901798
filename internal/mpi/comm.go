package mpi

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"

	"repro/internal/explain"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Tag limits: user tags live below userTagSpace; internal collective
// tags are derived above it from a per-communicator sequence number, so
// a collective never collides with user point-to-point traffic.
const userTagSpace = 1 << 16

// Comm is a communicator: an ordered group of processes with a private
// context, exactly one per process per communicator. All collective
// methods must be called by every member in the same order (the usual
// SPMD contract); the runtime deadlocks — and the engine reports which
// ranks are stuck — if the contract is broken.
type Comm struct {
	w        *World
	p        *simtime.Proc
	ctx      uint64
	rank     int   // my rank within this communicator
	group    []int // comm rank -> world rank
	splitSeq int   // lockstep counter deriving split contexts
	shares   int   // lockstep counter naming shared slots (Shared)

	sparse *SparseExchange // cached SparseScratch result, lazily built
	ag     *allgatherTask  // allgather state, lazily built (ring.go)
}

// SparseScratch returns this member's cached SparseExchange, creating
// it on first use. One scratch per communicator member suffices because
// exchange rounds on a comm never nest; reusing it keeps repeated
// collective rounds from reallocating the staging lists and masks.
func (c *Comm) SparseScratch() *SparseExchange {
	if c.sparse == nil {
		c.sparse = newSparseExchange(c)
	}
	return c.sparse
}

// Rank returns the caller's rank in this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank maps a communicator rank to its world rank.
func (c *Comm) WorldRank(r int) int { return c.group[r] }

// Proc returns the simulated process.
func (c *Comm) Proc() *simtime.Proc { return c.p }

// World returns the owning world.
func (c *Comm) World() *World { return c.w }

// NodeOf returns the physical node hosting communicator rank r.
func (c *Comm) NodeOf(r int) int { return c.w.machine.NodeOfRank(c.group[r]) }

// Now returns the caller's virtual time.
func (c *Comm) Now() float64 { return c.p.Now() }

// Tracer returns the event tracer attached to the machine, or nil when
// tracing is disabled. All obs.Tracer methods are nil-safe, so callers
// may use the result unconditionally.
func (c *Comm) Tracer() *obs.Tracer { return c.w.machine.Tracer() }

// Metrics returns the metrics registry attached to the machine, or nil
// when metrics are disabled. All metrics methods are nil-safe, so
// callers may use the result unconditionally.
func (c *Comm) Metrics() *metrics.Registry { return c.w.machine.Metrics() }

// Explain returns the decision recorder attached to the machine, or
// nil when the audit trail is disabled. All explain.Recorder methods
// are nil-safe, so callers may use the result unconditionally.
func (c *Comm) Explain() *explain.Recorder { return c.w.machine.Explain() }

// Faults returns the fault schedule attached to the world, or nil when
// fault injection is off. All Schedule methods are nil-safe, so callers
// may use the result unconditionally.
func (c *Comm) Faults() *faults.Schedule { return c.w.faults }

// traceLoc is the caller's track identity for MPI-level wait spans.
func (c *Comm) traceLoc() obs.Loc {
	return obs.Loc{Rank: c.group[c.rank], Node: c.w.machine.NodeOfRank(c.group[c.rank]), Group: -1, Round: -1}
}

func (c *Comm) checkRank(r int, what string) {
	if r < 0 || r >= len(c.group) {
		panic(fmt.Sprintf("mpi: %s rank %d out of comm size %d", what, r, len(c.group)))
	}
}

func (c *Comm) checkTag(tag int) {
	if tag < 0 || tag >= userTagSpace {
		panic(fmt.Sprintf("mpi: user tag %d out of [0,%d)", tag, userTagSpace))
	}
}

// SendVal transfers an arbitrary metadata value charged at bytes.
// Strategies use it for offset lists and control records whose wire
// size is known but which would be noise to serialize for real.
func (c *Comm) SendVal(dst, tag int, v any, bytes int64) {
	c.checkRank(dst, "send")
	c.checkTag(tag)
	c.isend(dst, tag, v, bytes)
}

// RecvVal blocks until the matching metadata value from src arrives.
func (c *Comm) RecvVal(src, tag int) any {
	c.checkRank(src, "recv")
	c.checkTag(tag)
	return c.irecv(src, tag)
}

// isend is SendVal without the checks, for the collective tags too.
func (c *Comm) isend(dst, tag int, v any, bytes int64) {
	c.w.deliver(c.p, c.group[c.rank], c.group[dst], c.ctx, tag, v, bytes)
}

// irecv is RecvVal without the checks. It takes the oldest landed
// message of (src, context, tag), as MPI matches; with none, it posts
// the key and parks until one lands.
func (c *Comm) irecv(src, tag int) any {
	q, k := &c.w.rx[c.group[c.rank]], matchKey{ctx: c.ctx, src: int32(c.group[src]), tag: int32(tag)}
	for {
		if v, ok := q.take(k); ok {
			return v
		}
		q.waiter, q.posted = c.p, msgKey{k, c.group[c.rank]}
		c.p.Park(q)
	}
}

// Internal collective tag blocks. Tags are FIXED per collective type
// rather than drawn from a per-call sequence: within one communicator
// context each (src, dst, tag) stream lands in send order, and the SPMD
// contract means both ends issue collectives in the same order, so a
// receive matches the message of its own call. Bounded tags no longer
// size a mailbox table (a rank's receive queue has no per-stream
// state), but they keep that matching this simple.
//
// tagAllgather's 63 step tags name no receive: an allgather delivers
// into one inbox per member (ring.go). They survive as the stream
// identity of the fault layer's arrival clamp in World.inject, which a
// fault schedule's trajectory depends on.
const (
	tagBcast     = userTagSpace + 1
	tagGather    = userTagSpace + 2
	tagAllgather = userTagSpace + 64 // + stepTag(step)
	tagAlltoall  = userTagSpace + 128
)

// Barrier blocks until all members arrive. The release time models the
// dissemination algorithm — the last arriver plus ⌈log₂ p⌉ token hops —
// but uses the engine's native barrier instead of 2·p·log p simulated
// token messages, which dominated host time in large runs. Token
// bandwidth is negligible (8 bytes/hop); the straggler semantics (all
// wait for the slowest) are preserved exactly.
func (c *Comm) Barrier() { c.Barriers(1) }

// Barriers is n consecutive Barrier calls with nothing in between, under
// one span: the member stands through the first n-1 releases without
// running (simtime.Barrier.AwaitDelay), so a rank that sits out rounds
// parks once for all of them. Virtual times are those of the n calls.
func (c *Comm) Barriers(n int) {
	p := len(c.group)
	if p == 1 {
		return
	}
	sp := c.Tracer().Begin(obs.PhaseMPIBarrier, c.traceLoc())
	c.w.met.barriers.Add(float64(n))
	steps := 0
	for dist := 1; dist < p; dist *= 2 {
		steps++
	}
	// The release delay is folded into the barrier wake (one park per
	// member instead of park-then-sleep); virtual times are unchanged.
	c.w.barrierFor(c.ctx, p).AwaitDelay(c.p, float64(steps)*c.w.barrierHop, n)
	sp.End()
}

// bcastMsg carries the payload size alongside the value so forwarding
// members charge the root's size, not their own (meaningless) argument.
type bcastMsg struct {
	v     any
	bytes int64
}

// Bcast distributes root's value to every member along a binomial tree
// and returns it. bytes is the charged payload size (only the root's
// argument matters).
func (c *Comm) Bcast(root int, v any, bytes int64) any {
	c.checkRank(root, "bcast root")
	p := len(c.group)
	const tag = tagBcast
	if p == 1 {
		return v
	}
	rel := (c.rank - root + p) % p
	// Receive from parent (highest set bit of rel).
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (rel - mask + root) % p
			got := c.irecv(src, tag).(bcastMsg)
			v, bytes = got.v, got.bytes
			break
		}
		mask <<= 1
	}
	// Forward to children.
	mask >>= 1
	for mask > 0 {
		if rel&mask == 0 && rel+mask < p {
			dst := (rel + mask + root) % p
			c.isend(dst, tag, bcastMsg{v: v, bytes: bytes}, bytes)
		}
		mask >>= 1
	}
	return v
}

// sharedKey names one shared slot: a communicator and a call number.
type sharedKey struct {
	ctx uint64
	seq int
}

// sharedSlot holds one call's value until every member has taken it.
type sharedSlot struct {
	kind string // the value's type, which every member's call must match
	v    any
	left int // members yet to take it
}

// Shared returns f's value to every member of c: the first member to
// call it runs f, the others receive that same value, and the slot is
// dropped once the last member has taken it. It schedules no event and
// charges no simulated time. Every member must call it at the same point
// of its collective sequence, and nobody may write the value afterwards
// but a member its own entry of a per-member slice; a member whose call
// does not match the slot's kind panics.
func Shared[T any](c *Comm, f func() T) T {
	c.shares++
	k, kind := sharedKey{ctx: c.ctx, seq: c.shares}, reflect.TypeFor[T]().String()
	s := c.w.shared[k]
	if s == nil {
		s = &sharedSlot{kind: kind, v: f(), left: len(c.group)}
		c.w.shared[k] = s
	} else if s.kind != kind {
		panic(fmt.Sprintf("mpi: comm%x shared call #%d: rank %d calls %s, the slot holds %s", c.ctx, k.seq, c.rank, kind, s.kind))
	}
	if s.left--; s.left == 0 {
		delete(c.w.shared, k)
	}
	v, _ := s.v.(T) // the kind check fixed T; a nil interface value fails a plain assertion
	return v
}

// allgathered is an Allgather result: a shared slot's value of its own
// kind.
type allgathered []any

// Allgather collects one value from every member on every member, by
// the algorithm MPICH2 picks for the total p × bytes (pickAllgather).
// bytes is the charged size of each member's value and must be the
// same on every member. Result is indexed by comm rank; it is one slice
// for all members (Shared), so nobody may write it.
func (c *Comm) Allgather(v any, bytes int64) []any {
	return c.allgather(v, bytes, pickAllgather(len(c.group), bytes))
}

// allgather runs Allgather with algorithm alg as an engine-driven task
// (ring.go): the caller starts it, parks at most once, and is resumed by
// the step that completes it. Each member fills in its own entry before
// step 0; the task carries no values, only the waits that order them,
// and its last step depends on every member, so the slice is full when
// any member returns.
func (c *Comm) allgather(v any, bytes int64, alg allgatherAlg) []any {
	out := Shared(c, func() allgathered { return make(allgathered, len(c.group)) })
	out[c.rank] = v
	if len(out) > 1 && !c.allgatherTask().start(alg, bytes) {
		c.ag.parked = true
		c.p.Park(c.ag)
	}
	return out
}

// stepTag folds an unbounded allgather step into the 63-tag block
// reserved for Allgather.
func stepTag(step int) int { return step % 63 }

// Gather collects one value from every member at root; non-roots get
// nil. bytes charges each member's value.
func (c *Comm) Gather(root int, v any, bytes int64) []any {
	c.checkRank(root, "gather root")
	p := len(c.group)
	const tag = tagGather
	if c.rank != root {
		c.isend(root, tag, v, bytes)
		return nil
	}
	out := make([]any, p)
	out[root] = v
	for r := 0; r < p; r++ {
		if r != root {
			out[r] = c.irecv(r, tag)
		}
	}
	return out
}

// AlltoallSparseInto exchanges vals[i] (charged at bytes[i]) to member
// i by pairwise exchange, skipping nil entries, and writes what arrives
// into the caller-owned out slice, so a round loop can reuse one result
// array instead of allocating p entries per exchange. All four slices
// have length Size(). present[i] must be true on the *receiver* side
// exactly when sender i has a non-nil value for us; strategies compute
// it from the same global metadata on both sides. This keeps sparse
// shuffles (the common collective-I/O case — each rank talks to a few
// aggregators) from paying p² latency. Every entry of out is
// overwritten (non-present entries with nil). It is one round of the
// member's SparseScratch.
func (c *Comm) AlltoallSparseInto(out, vals []any, bytes []int64, present []bool) {
	p := len(c.group)
	if len(out) != p || len(vals) != p || len(bytes) != p || len(present) != p {
		panic("mpi: alltoallsparse length mismatch")
	}
	x := c.SparseScratch()
	x.Reset()
	for i, v := range vals {
		if v != nil {
			x.Stage(i, v, bytes[i])
		}
		if present[i] {
			x.Expect(i)
		}
	}
	x.Exchange()
	clear(out)
	for _, e := range x.recvd {
		out[e.src] = e.v
	}
}

// splitInfo is the record exchanged by Split.
type splitInfo struct {
	color, key, rank int
}

// Split partitions the communicator by color: members sharing a color
// form a new communicator ordered by (key, old rank), exactly like
// MPI_Comm_split. Every member must call it; the caller gets its own
// color's communicator.
func (c *Comm) Split(color, key int) *Comm {
	return c.splitFrom(c.Allgather(splitInfo{color: color, key: key, rank: c.rank}, splitInfoBytes), color)
}

// splitInfoBytes is the charged size of one splitInfo record.
const splitInfoBytes = 12

// splitTable is one Split's outcome for all members: each color's group
// (shared like the world identity) and each old rank's new rank.
type splitTable struct {
	groups map[int][]int
	rank   []int
}

// splitFrom builds the caller's new communicator from every member's
// allgathered splitInfo, sorted once into a table all members share.
func (c *Comm) splitFrom(infos []any, color int) *Comm {
	t := Shared(c, func() *splitTable {
		all := make([]splitInfo, len(infos))
		for i, v := range infos {
			all[i] = v.(splitInfo)
		}
		slices.SortFunc(all, func(a, b splitInfo) int {
			return cmp.Or(cmp.Compare(a.color, b.color), cmp.Compare(a.key, b.key), cmp.Compare(a.rank, b.rank))
		})
		t := &splitTable{groups: make(map[int][]int), rank: make([]int, len(all))}
		world := make([]int, len(all))
		for i, j := 0, 0; i < len(all); i = j {
			for ; j < len(all) && all[j].color == all[i].color; j++ {
				world[j], t.rank[all[j].rank] = c.group[all[j].rank], j-i
			}
			t.groups[all[i].color] = world[i:j:j]
		}
		return t
	})
	// All members derive the same context deterministically; the split
	// counter advances in lockstep under the SPMD contract.
	c.splitSeq++
	ctx := c.ctx*0x100000001b3 ^ uint64(c.splitSeq)<<20 ^ uint64(color+1)
	return &Comm{w: c.w, p: c.p, ctx: ctx, rank: t.rank[c.rank], group: t.groups[color]}
}
