// Package datatype provides the noncontiguous-access machinery under
// MPI-IO-style file views: byte segments, canonical segment lists with
// the algebra two-phase I/O needs (normalize, intersect, clip, split),
// and flattened derived datatypes (contiguous, vector, 3-D subarray).
package datatype

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Segment is a half-open byte extent [Off, Off+Len) in a file.
type Segment struct {
	Off int64
	Len int64
}

// End returns one past the last byte.
func (s Segment) End() int64 { return s.Off + s.Len }

func (s Segment) String() string { return fmt.Sprintf("[%d,%d)", s.Off, s.End()) }

// List is a canonical access pattern: segments sorted by offset,
// non-overlapping, non-adjacent, all with positive length. Construct
// with Normalize (or from generators that guarantee canonical output).
type List []Segment

// Normalize sorts segments, drops empty ones, and merges overlapping or
// adjacent ones, returning the canonical form. The input is not
// modified.
func Normalize(segs []Segment) List {
	work := make([]Segment, 0, len(segs))
	for _, s := range segs {
		if s.Len < 0 {
			panic(fmt.Sprintf("datatype: negative segment length %v", s))
		}
		if s.Len > 0 {
			work = append(work, s)
		}
	}
	// Equal offsets coalesce into the same run in either order, so an
	// unstable sort gives one result.
	slices.SortFunc(work, func(a, b Segment) int { return cmp.Compare(a.Off, b.Off) })
	out := work[:0]
	for _, s := range work {
		if n := len(out); n > 0 && s.Off <= out[n-1].End() {
			if s.End() > out[n-1].End() {
				out[n-1].Len = s.End() - out[n-1].Off
			}
			continue
		}
		out = append(out, s)
	}
	return List(out)
}

// IsCanonical reports whether l satisfies the List invariants; property
// tests use it, and debug builds of strategies assert it.
func (l List) IsCanonical() bool {
	for i, s := range l {
		if s.Len <= 0 {
			return false
		}
		if i > 0 && s.Off <= l[i-1].End() {
			return false
		}
	}
	return true
}

// TotalBytes returns the sum of segment lengths.
func (l List) TotalBytes() int64 {
	var n int64
	for _, s := range l {
		n += s.Len
	}
	return n
}

// Extent returns the smallest half-open range [lo, hi) covering l, or
// (0, 0) for an empty list.
func (l List) Extent() (lo, hi int64) {
	if len(l) == 0 {
		return 0, 0
	}
	return l[0].Off, l[len(l)-1].End()
}

// Clip returns the portion of l inside [lo, hi). The result is
// canonical. Binary search keeps repeated clipping cheap: two-phase
// I/O clips every rank's pattern against every file domain each round.
func (l List) Clip(lo, hi int64) List {
	if hi <= lo || len(l) == 0 {
		return nil
	}
	// First segment whose end is past lo.
	i := sort.Search(len(l), func(i int) bool { return l[i].End() > lo })
	var out List
	for ; i < len(l) && l[i].Off < hi; i++ {
		s := l[i]
		if s.Off < lo {
			s.Len -= lo - s.Off
			s.Off = lo
		}
		if s.End() > hi {
			s.Len = hi - s.Off
		}
		if s.Len > 0 {
			out = append(out, s)
		}
	}
	return out
}

// Intersects reports whether any part of l lies inside [lo, hi) —
// Clip-then-check-length without materialising the clipped list, for
// the per-round presence tests on the exchange hot path.
func (l List) Intersects(lo, hi int64) bool {
	if hi <= lo || len(l) == 0 {
		return false
	}
	i := sort.Search(len(l), func(i int) bool { return l[i].End() > lo })
	return i < len(l) && l[i].Off < hi
}

// Holes returns the gaps between consecutive segments of l inside l's
// own extent. A write pattern with holes forces read-modify-write on
// the aggregator.
func (l List) Holes() List {
	var out List
	for i := 1; i < len(l); i++ {
		gap := Segment{Off: l[i-1].End(), Len: l[i].Off - l[i-1].End()}
		if gap.Len > 0 {
			out = append(out, gap)
		}
	}
	return out
}

// Equal reports element-wise equality.
func (l List) Equal(o List) bool {
	if len(l) != len(o) {
		return false
	}
	for i := range l {
		if l[i] != o[i] {
			return false
		}
	}
	return true
}
