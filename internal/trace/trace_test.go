package trace

import (
	"strings"
	"testing"
)

func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	if s := m.AggBufferStats(); s.N != 0 || s.Mean != 0 {
		t.Fatalf("nil metrics stats %+v, want zero summary", s)
	}
}

func TestAggBufferStats(t *testing.T) {
	m := Metrics{AggBufferBytes: []int64{1000, 3000}}
	s := m.AggBufferStats()
	if s.N != 2 || s.Mean != 2000 || s.Min != 1000 || s.Max != 3000 {
		t.Fatalf("buffer stats %+v", s)
	}
}

func TestMergeSemantics(t *testing.T) {
	a := Metrics{Rounds: 5, Groups: 2, Remerges: 1, Aggregators: 1,
		BytesIO: 100, IORequests: 2, BytesShuffleIntra: 10, BytesShuffleInter: 20,
		ExchangeSeconds: 1, IOSeconds: 2, AggBufferBytes: []int64{64}}
	b := Metrics{Rounds: 3, Groups: 2, Remerges: 1, Aggregators: 2,
		BytesIO: 50, IORequests: 1, BytesShuffleIntra: 5, BytesShuffleInter: 5,
		ExchangeSeconds: 0.5, IOSeconds: 1, AggBufferBytes: []int64{32, 16}}
	a.Merge(b)
	// Max fields (recorded alike by several ranks) stay, sums add —
	// remerges too: each is recorded by one rank.
	if a.Rounds != 5 || a.Groups != 2 {
		t.Fatalf("max fields: %+v", a)
	}
	if a.Remerges != 2 || a.Aggregators != 3 || a.BytesIO != 150 || a.IORequests != 3 {
		t.Fatalf("sum fields: %+v", a)
	}
	if a.ExchangeSeconds != 1.5 || a.IOSeconds != 3 {
		t.Fatalf("seconds: %+v", a)
	}
	if len(a.AggBufferBytes) != 3 {
		t.Fatalf("buffers: %+v", a.AggBufferBytes)
	}
}

func TestResultBandwidth(t *testing.T) {
	r := Result{Bytes: 2_000_000, Elapsed: 2}
	if got := r.BandwidthMBps(); got != 1 {
		t.Fatalf("bw %g, want 1", got)
	}
	if (Result{Bytes: 100}).BandwidthMBps() != 0 {
		t.Fatal("zero elapsed must yield zero bandwidth")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Bytes: 1_000_000, Elapsed: 1}
	r.Strategy = "mccio"
	r.Op = "write"
	r.Rounds = 4
	s := r.String()
	for _, want := range []string{"mccio", "write", "1.0 MB/s", "rounds=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("%q missing from %q", want, s)
		}
	}
}
