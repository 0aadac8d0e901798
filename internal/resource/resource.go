// Package resource models contended hardware resources — memory buses,
// NICs, network bisection, disks — as bandwidth/latency servers whose
// capacity is reserved in virtual time.
//
// The contention model is serialized reservation: a resource keeps an
// "available at" horizon; each transfer occupies the resource for
// bytes/bandwidth seconds starting no earlier than that horizon, and
// pushes the horizon forward. Two transfers sharing a link therefore
// finish no faster than the link can carry their combined bytes, which
// is the property the paper's off-chip-bandwidth and shuffle-contention
// arguments rest on. A path across several resources completes at the
// pace of its bottleneck while still charging every hop for the bytes
// it carried.
package resource

import (
	"fmt"

	"repro/internal/simtime"
)

// Link is a bandwidth/latency resource: a memory bus, a NIC, a switch
// bisection, or a disk stream.
type Link struct {
	name      string
	bandwidth float64 // bytes per second
	latency   float64 // fixed per-transfer seconds
	availAt   float64 // horizon: earliest start for the next transfer

	busy      float64 // accumulated busy seconds, for utilisation reports
	bytesIn   int64   // total bytes carried
	transfers int64
}

// NewLink returns a link with the given bandwidth (bytes/s) and fixed
// per-transfer latency (s). Bandwidth must be positive.
func NewLink(name string, bandwidth, latency float64) *Link {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("resource: link %q with bandwidth %g", name, bandwidth))
	}
	if latency < 0 {
		panic(fmt.Sprintf("resource: link %q with negative latency %g", name, latency))
	}
	return &Link{name: name, bandwidth: bandwidth, latency: latency}
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// serviceTime returns how long the link is occupied carrying n bytes.
func (l *Link) serviceTime(n int64) float64 {
	return float64(n) / l.bandwidth
}

// reserve books n bytes starting no earlier than t and returns the
// [start, end) of the occupation.
func (l *Link) reserve(t float64, n int64) (start, end float64) {
	start = t
	if l.availAt > start {
		start = l.availAt
	}
	end = start + l.serviceTime(n)
	l.availAt = end
	l.busy += end - start
	l.bytesIn += n
	l.transfers++
	return start, end
}

// Transfer blocks p for the time it takes to move n bytes across the
// link: queueing behind earlier reservations, plus latency, plus
// serialization. It returns the virtual completion time.
func (l *Link) Transfer(p *simtime.Proc, n int64) float64 {
	done := l.Reserve(p.Now(), n)
	p.WaitUntil(done)
	return done
}

// Reserve books n bytes starting no earlier than now and returns the
// completion time without blocking. It lets one process issue several
// concurrent requests (e.g. to many storage targets) and then wait for
// the latest completion.
func (l *Link) Reserve(now float64, n int64) float64 {
	if n < 0 {
		panic(fmt.Sprintf("resource: negative transfer %d on %q", n, l.name))
	}
	_, end := l.reserve(now, n)
	return end + l.latency
}

// Stats reports cumulative link usage.
func (l *Link) Stats() LinkStats {
	return LinkStats{Name: l.name, BusySeconds: l.busy, Bytes: l.bytesIn, Transfers: l.transfers}
}

// LinkStats is a snapshot of cumulative link usage.
type LinkStats struct {
	Name        string
	BusySeconds float64
	Bytes       int64
	Transfers   int64
}

// Path is an ordered sequence of links a transfer crosses, e.g.
// sender membus → sender NIC → bisection → receiver NIC → receiver
// membus. Completion is bottleneck-paced; every hop is charged its own
// service time so later traffic queues realistically at each hop.
type Path struct {
	links []*Link
}

// NewPath returns a path over the given links. Nil links are skipped so
// callers can compose paths conditionally (e.g. no bisection hop for
// intra-rack traffic).
func NewPath(links ...*Link) Path {
	kept := make([]*Link, 0, len(links))
	for _, l := range links {
		if l != nil {
			kept = append(kept, l)
		}
	}
	return Path{links: kept}
}

// Links returns the hops in order.
func (pa Path) Links() []*Link { return pa.links }

// Transfer blocks p while n bytes traverse every hop. The transfer
// starts when the most-backlogged hop frees up, runs at the bandwidth
// of the slowest hop, and pays the sum of hop latencies once (cut-
// through, not store-and-forward). Each hop's horizon advances by its
// own service time, so a fast hop shared with other traffic still
// serializes that traffic. Returns the completion time.
func (pa Path) Transfer(p *simtime.Proc, n int64) float64 {
	done := pa.Reserve(p.Now(), n)
	p.WaitUntil(done)
	return done
}

// Reserve books n bytes across every hop starting no earlier than now
// and returns the completion time without blocking. See Transfer for
// the pacing model.
func (pa Path) Reserve(now float64, n int64) float64 {
	return reserveSeq(pa.links, nil, now, n)
}

// ReserveTail is Reserve over the path's hops followed by tail — the
// arithmetic pa.Extend(tail).Reserve(now, n) performs — without
// building a new path. Hot callers (one storage target appended per
// request) use it to keep the reservation alloc-free.
func (pa Path) ReserveTail(now float64, n int64, tail *Link) float64 {
	t := [1]*Link{tail}
	return reserveSeq(pa.links, t[:], now, n)
}

// ReserveHead is Reserve with head prepended to the path's hops — the
// arithmetic NewPath(head).Extend(pa.Links()...).Reserve(now, n)
// performs — without building a new path.
func (pa Path) ReserveHead(now float64, n int64, head *Link) float64 {
	h := [1]*Link{head}
	return reserveSeq(h[:], pa.links, now, n)
}

// reserveSeq reserves across the hops of a followed by b. Reserve and
// its zero-alloc variants all route here so the float arithmetic —
// latency summation order in particular — cannot drift between them.
func reserveSeq(a, b []*Link, now float64, n int64) float64 {
	if len(a)+len(b) == 0 {
		return now
	}
	if n < 0 {
		panic(fmt.Sprintf("resource: negative transfer %d on path", n))
	}
	start := now
	var latSum, bottleneck float64
	first := true
	for _, links := range [2][]*Link{a, b} {
		for _, l := range links {
			if first {
				bottleneck = l.bandwidth
				first = false
			}
			if l.availAt > start {
				start = l.availAt
			}
			latSum += l.latency
			if l.bandwidth < bottleneck {
				bottleneck = l.bandwidth
			}
		}
	}
	for _, links := range [2][]*Link{a, b} {
		for _, l := range links {
			svc := l.serviceTime(n)
			l.availAt = start + svc
			l.busy += svc
			l.bytesIn += n
			l.transfers++
		}
	}
	return start + float64(n)/bottleneck + latSum
}
