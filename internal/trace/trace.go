// Package trace collects per-operation metrics from collective I/O
// strategies: phase times, round counts, shuffle traffic, aggregator
// buffer sizes. The benchmark harness turns these into the rows the
// paper's figures report, and the memory/variance claims (aggregator
// memory consumption and its spread) are checked against them.
package trace

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// Metrics accumulates strategy-internal counters for one rank's part of
// a collective operation. Each fact is written by the one function that
// records it on every sink (collio's probe, core's group-division and
// group-plan records, twolayer.Audit, iolib.Naive); a nil *Metrics
// records nothing.
type Metrics struct {
	Strategy string
	Op       string // "write" or "read"

	Rounds      int   // two-phase rounds executed (max across aggregators)
	Aggregators int   // distinct aggregator processes
	Groups      int   // aggregation groups (1 for the baseline)
	Leaders     int   // elected node leaders (two-layer exchange; 0 otherwise)
	Remerges    int   // workload-portion remerges: planned for lack of memory, or a failover
	BytesIO     int64 // bytes moved to/from the file system
	IORequests  int64 // requests issued to the file system

	BytesShuffleIntra int64 // shuffle bytes that stayed on-node
	BytesShuffleInter int64 // shuffle bytes that crossed nodes

	ExchangeSeconds float64 // summed aggregator time in the exchange phase
	IOSeconds       float64 // summed aggregator time in the I/O phase

	AggBufferBytes []int64 // per-aggregator buffer allocation (high-water)
}

// AggBufferStats summarises per-aggregator buffer sizes; the paper's
// "reduces aggregator memory consumption and variance" claim is checked
// on Mean and CV.
func (m *Metrics) AggBufferStats() stats.Summary {
	if m == nil {
		return stats.Summary{}
	}
	xs := make([]float64, len(m.AggBufferBytes))
	for i, b := range m.AggBufferBytes {
		xs[i] = float64(b)
	}
	return stats.Summarize(xs)
}

// Merge folds another rank's metrics into m. Counts that exactly one
// rank records per event add up: traffic, I/O, phase seconds,
// aggregators and their buffers, leaders (each plan's root) and
// remerges (each group's root for the planner's, the taker for a
// failover's). Rounds and groups, which several ranks may record with
// the same value, take the max.
func (m *Metrics) Merge(o Metrics) {
	m.Rounds = max(m.Rounds, o.Rounds)
	m.Groups = max(m.Groups, o.Groups)
	m.Remerges += o.Remerges
	m.Aggregators += o.Aggregators
	m.Leaders += o.Leaders
	m.BytesIO += o.BytesIO
	m.IORequests += o.IORequests
	m.BytesShuffleIntra += o.BytesShuffleIntra
	m.BytesShuffleInter += o.BytesShuffleInter
	m.ExchangeSeconds += o.ExchangeSeconds
	m.IOSeconds += o.IOSeconds
	m.AggBufferBytes = append(m.AggBufferBytes, o.AggBufferBytes...)
}

// Result is one completed collective operation as the harness sees it.
type Result struct {
	Metrics
	Bytes   int64   // payload bytes moved for the application
	Elapsed float64 // virtual seconds from collective start to finish
}

// BandwidthMBps returns application bandwidth in decimal MB/s, the unit
// the paper plots.
func (r Result) BandwidthMBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed
}

// String renders a one-line summary for logs.
func (r Result) String() string {
	return fmt.Sprintf("%s %s: %.1f MB in %s → %.1f MB/s (rounds=%d aggs=%d groups=%d remerges=%d)",
		r.Strategy, r.Op, float64(r.Bytes)/1e6,
		(time.Duration(r.Elapsed * float64(time.Second))).Round(time.Microsecond),
		r.BandwidthMBps(), r.Rounds, r.Aggregators, r.Groups, r.Remerges)
}
