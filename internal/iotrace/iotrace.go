// Package iotrace records and replays application I/O traces. A trace
// is the portable form of a workload: one line per request with rank,
// operation, offset and length. Traces let users feed their real
// application patterns into the simulator (`mccio-sim TRACE`) and let
// experiments persist exactly what they measured.
//
// Format (text, line-oriented, stable):
//
//	#mccio-trace v1
//	# optional comments
//	<rank> <w|r> <offset> <length>
//
// Requests of one rank need not be sorted; replay canonicalizes them.
package iotrace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/datatype"
	"repro/internal/workload"
)

// Op is a request direction.
type Op byte

const (
	Write Op = 'w'
	Read  Op = 'r'
)

// Request is one recorded I/O request.
type Request struct {
	Rank int
	Op   Op
	Off  int64
	Len  int64
}

// Trace is an ordered list of requests.
type Trace struct {
	Requests []Request
}

// header identifies the format version.
const header = "#mccio-trace v1"

// maxRank bounds the ranks Parse accepts. A replay allocates one view
// per rank up to the highest one named, so an unchecked rank in a
// hostile or corrupt file is an allocation of that size; 2^20 is far
// beyond any machine the simulator can run.
const maxRank = 1 << 20

// Add appends a request.
func (t *Trace) Add(rank int, op Op, off, length int64) {
	t.Requests = append(t.Requests, Request{Rank: rank, Op: op, Off: off, Len: length})
}

// NumRanks returns one past the highest rank mentioned.
func (t *Trace) NumRanks() int {
	max := -1
	for _, r := range t.Requests {
		if r.Rank > max {
			max = r.Rank
		}
	}
	return max + 1
}

// Write serializes the trace.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, header); err != nil {
		return err
	}
	for _, r := range t.Requests {
		if _, err := fmt.Fprintf(bw, "%d %c %d %d\n", r.Rank, r.Op, r.Off, r.Len); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads a serialized trace, validating every line.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	sawHeader := false
	t := &Trace{}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if text == header {
				sawHeader = true
			}
			continue
		}
		if !sawHeader {
			return nil, fmt.Errorf("iotrace: line %d: data before %q header", line, header)
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			return nil, fmt.Errorf("iotrace: line %d: want 4 fields, got %d", line, len(fields))
		}
		rank, err := strconv.Atoi(fields[0])
		if err != nil || rank < 0 || rank > maxRank {
			return nil, fmt.Errorf("iotrace: line %d: bad rank %q (want 0..%d)", line, fields[0], maxRank)
		}
		var op Op
		switch fields[1] {
		case "w":
			op = Write
		case "r":
			op = Read
		default:
			return nil, fmt.Errorf("iotrace: line %d: bad op %q", line, fields[1])
		}
		off, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || off < 0 {
			return nil, fmt.Errorf("iotrace: line %d: bad offset %q", line, fields[2])
		}
		length, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil || length <= 0 || off > math.MaxInt64-length {
			return nil, fmt.Errorf("iotrace: line %d: bad length %q (want > 0, ending inside the int64 range)", line, fields[3])
		}
		t.Add(rank, op, off, length)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("iotrace: missing %q header", header)
	}
	return t, nil
}

// FromWorkload records a workload's views as a trace (all requests with
// the given op).
func FromWorkload(w workload.Workload, op Op) *Trace {
	t := &Trace{}
	for rank := 0; rank < w.NumRanks(); rank++ {
		for _, s := range w.View(rank) {
			t.Add(rank, op, s.Off, s.Len)
		}
	}
	return t
}

// Replay is a Workload backed by a trace, filtered to one op.
type Replay struct {
	trace *Trace
	op    Op
	views []datatype.List
}

// NewReplay canonicalizes the trace's op-requests into per-rank views.
// Overlapping requests of one rank merge (canonical views); overlaps
// ACROSS ranks are rejected for writes, since a collective write with
// inter-rank overlap has no deterministic outcome to verify.
func NewReplay(t *Trace, op Op) (*Replay, error) {
	n := t.NumRanks()
	if n == 0 {
		return nil, fmt.Errorf("iotrace: empty trace")
	}
	raw := make([][]datatype.Segment, n)
	for _, r := range t.Requests {
		if r.Op != op {
			continue
		}
		raw[r.Rank] = append(raw[r.Rank], datatype.Segment{Off: r.Off, Len: r.Len})
	}
	rp := &Replay{trace: t, op: op, views: make([]datatype.List, n)}
	var all []datatype.Segment
	var sum int64
	for rank, segs := range raw {
		rp.views[rank] = datatype.Normalize(segs)
		sum += rp.views[rank].TotalBytes()
		all = append(all, rp.views[rank]...)
	}
	if op == Write {
		if merged := datatype.Normalize(all); merged.TotalBytes() != sum {
			return nil, fmt.Errorf("iotrace: write requests overlap across ranks (%d bytes requested, %d distinct)",
				sum, merged.TotalBytes())
		}
	}
	return rp, nil
}

// Name implements workload.Workload.
func (rp *Replay) Name() string {
	return fmt.Sprintf("trace replay (%c, %d ranks, %d reqs)", rp.op, len(rp.views), len(rp.trace.Requests))
}

// NumRanks implements workload.Workload.
func (rp *Replay) NumRanks() int { return len(rp.views) }

// View implements workload.Workload.
func (rp *Replay) View(rank int) datatype.List { return rp.views[rank] }

// TotalBytes implements workload.Workload.
func (rp *Replay) TotalBytes() int64 {
	var sum int64
	for _, v := range rp.views {
		sum += v.TotalBytes()
	}
	return sum
}

// Stats summarizes a trace for inspection tools.
type Stats struct {
	Ranks       int
	Requests    int
	Bytes       int64
	MinLen      int64
	MaxLen      int64
	MeanLen     float64
	FileExtent  int64 // one past the highest byte touched
	Interleave  float64
	WriteShare  float64 // fraction of requests that are writes
	SizeBuckets map[string]int
}

// Analyze computes trace statistics. Interleave measures how scattered
// ownership is: the number of maximal contiguous single-rank runs
// divided by the number of ranks (1.0 = perfectly rank-contiguous
// layout; higher = interleaved).
func Analyze(t *Trace) Stats {
	s := Stats{Ranks: t.NumRanks(), Requests: len(t.Requests), SizeBuckets: map[string]int{}}
	if len(t.Requests) == 0 {
		return s
	}
	s.MinLen = t.Requests[0].Len
	type ext struct {
		off, end int64
		rank     int
	}
	exts := make([]ext, 0, len(t.Requests))
	writes := 0
	for _, r := range t.Requests {
		s.Bytes += r.Len
		if r.Len < s.MinLen {
			s.MinLen = r.Len
		}
		if r.Len > s.MaxLen {
			s.MaxLen = r.Len
		}
		if r.Off+r.Len > s.FileExtent {
			s.FileExtent = r.Off + r.Len
		}
		if r.Op == Write {
			writes++
		}
		s.SizeBuckets[sizeBucket(r.Len)]++
		exts = append(exts, ext{off: r.Off, end: r.Off + r.Len, rank: r.Rank})
	}
	s.MeanLen = float64(s.Bytes) / float64(s.Requests)
	s.WriteShare = float64(writes) / float64(s.Requests)
	// Interleave: sort by offset, count rank changes between adjacent
	// extents.
	sort.Slice(exts, func(i, j int) bool { return exts[i].off < exts[j].off })
	runs := 1
	for i := 1; i < len(exts); i++ {
		if exts[i].rank != exts[i-1].rank {
			runs++
		}
	}
	s.Interleave = float64(runs) / float64(maxInt(s.Ranks, 1))
	return s
}

func sizeBucket(n int64) string {
	switch {
	case n < 4<<10:
		return "<4K"
	case n < 64<<10:
		return "4K-64K"
	case n < 1<<20:
		return "64K-1M"
	case n < 16<<20:
		return "1M-16M"
	default:
		return ">=16M"
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
