// Package ring is the placement layer of the sharded plan-serving
// cluster: a consistent-hash ring that maps each plan fingerprint to
// the daemon that owns it.
//
// Each member is projected onto the 64-bit hash circle at Vnodes
// pseudo-random points (virtual nodes), and a key is owned by the
// member whose point is first at or clockwise after the key's hash.
// Virtual nodes smooth the ownership shares — with v points per member
// the expected share is 1/N with variance shrinking as v grows — and,
// crucially, bound reconfiguration cost: when a member joins or leaves
// an N-member ring, only about keys/N of the keyspace changes owner,
// and every moved key moves to (join) or away from (leave) the changed
// member. The rest of the cluster's caches stay warm.
//
// Placement is a pure function of the member set and the vnode count:
// two processes that build a ring from the same membership agree on
// every key's owner without any coordination, which is what lets each
// daemon in the cluster route requests independently. The hash is
// SHA-256-based, so placement does not depend on Go's map order,
// hash seed, or platform.
package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultVnodes is the virtual-node count used when a Ring is built
// with vnodes <= 0. 64 points per member keeps the max/min ownership
// share within a few tens of percent on small clusters while keeping
// ring construction and memory trivial.
const DefaultVnodes = 64

// point is one virtual node on the hash circle.
type point struct {
	hash   uint64
	member int // index into members
}

// Ring is an immutable consistent-hash ring over a set of named
// members. Build one with New; lookups are safe for concurrent use
// without locking because the ring never mutates — reconfiguration
// (a member joining or leaving) builds a new Ring.
type Ring struct {
	members []string // sorted, unique
	vnodes  int
	points  []point // sorted by hash
}

// hash64 maps a string to a point on the 64-bit circle. SHA-256 is
// already the fingerprint hash elsewhere in the plan service; reusing
// it keeps placement independent of process, platform, and Go version.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.LittleEndian.Uint64(sum[:8])
}

// New builds a ring over members with vnodes virtual nodes per member
// (<= 0 means DefaultVnodes). Member order and duplicates do not
// matter: the member set alone determines placement. A ring over zero
// members is valid; every lookup then returns the zero value.
func New(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	uniq := append([]string(nil), members...)
	sort.Strings(uniq)
	uniq = compact(uniq)
	r := &Ring{members: uniq, vnodes: vnodes}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash:   hash64(m + "#" + strconv.Itoa(v)),
				member: mi,
			})
		}
	}
	// Ties on hash are broken by member order so that even a collision
	// (astronomically unlikely at 64 bits, but determinism should not
	// rest on luck) resolves identically in every process.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// compact removes adjacent duplicates from a sorted slice.
func compact(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Members returns the member set in sorted order. The caller must not
// modify the returned slice.
func (r *Ring) Members() []string { return r.members }

// succ returns the index of the first point at or clockwise after h.
func (r *Ring) succ(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0 // wrap past the top of the circle
	}
	return i
}

// Owner returns the member that owns key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.members[r.points[r.succ(hash64(key))].member]
}

// Replicas returns the first n distinct members clockwise from key's
// hash — the key's replica set, with the owner first. n larger than
// the member count returns every member; the order is the fail-over
// order, so routing to Replicas(key, N)[1] when the owner is down is
// the same decision on every daemon.
func (r *Ring) Replicas(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, steps := r.succ(hash64(key)), 0; steps < len(r.points); i, steps = (i+1)%len(r.points), steps+1 {
		mi := r.points[i].member
		if seen[mi] {
			continue
		}
		seen[mi] = true
		out = append(out, r.members[mi])
		if len(out) == n {
			break
		}
	}
	return out
}

// Shares returns each member's owned fraction of the hash keyspace —
// the exact arc lengths, not a sample — for observability surfaces
// like /debug/ring. An empty ring returns an empty map.
func (r *Ring) Shares() map[string]float64 {
	out := make(map[string]float64, len(r.members))
	if len(r.points) == 0 {
		return out
	}
	if len(r.points) == 1 {
		// One point owns the whole circle; 2^64 does not fit in the
		// uint64 arc arithmetic below.
		out[r.members[r.points[0].member]] = 1
		return out
	}
	const span = float64(1<<63) * 2 // 2^64 as a float
	for i, p := range r.points {
		// Keys hashing into (prev, p.hash] belong to p's member; the
		// first point also owns the wrap-around arc from the last point.
		var arc uint64
		if i == 0 {
			arc = p.hash + (^r.points[len(r.points)-1].hash + 1)
		} else {
			arc = p.hash - r.points[i-1].hash
		}
		out[r.members[p.member]] += float64(arc) / span
	}
	return out
}
