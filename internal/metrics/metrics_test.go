package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters never decrease
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %g, want 5", got)
	}
	if again := r.Counter("reqs_total", "requests"); again != c {
		t.Fatal("same identity returned a different counter")
	}

	g := r.Gauge("mem_bytes", "used", "node", "0")
	g.Set(100)
	g.Add(-40)
	if got := g.Value(); got != 60 {
		t.Fatalf("gauge = %g, want 60", got)
	}
	g.SetMax(50) // below current: no-op
	g.SetMax(90)
	if got := g.Value(); got != 90 {
		t.Fatalf("gauge after SetMax = %g, want 90", got)
	}
	if other := r.Gauge("mem_bytes", "used", "node", "1"); other == g {
		t.Fatal("different labels returned the same gauge")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x_total", "")
}

func TestHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-106.5) > 1e-9 {
		t.Fatalf("sum = %g, want 106.5", got)
	}
	buckets := r.Snapshot().Families[0].Samples[0].Buckets
	// Median rank 2.5 lands in the (1,2] bucket holding observations
	// 2..3 of 5; interpolation stays inside the bucket.
	if q := QuantileBuckets(buckets, 0.5); q < 1 || q > 2 {
		t.Fatalf("q50 = %g, want within (1,2]", q)
	}
	// Samples in the +Inf bucket report the highest finite bound.
	if q := QuantileBuckets(buckets, 1); q != 4 {
		t.Fatalf("q100 = %g, want 4", q)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter("a_total", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c", "", []float64{1})
	c.Inc()
	g.Set(5)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments recorded values")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry exposition = %q, want empty", buf.String())
	}
	if snap := r.Snapshot(); len(snap.Families) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("mccio_rounds_total", "Rounds executed.", "op", "write").Add(3)
	r.Gauge("mccio_node_mem_used_bytes", "Ledger usage.", "node", "0").Set(1 << 20)
	h := r.Histogram("pfs_request_bytes", "Request sizes.", []float64{1024, 4096}, "op", "write")
	h.Observe(100)
	h.Observe(2048)
	h.Observe(1 << 20)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE mccio_rounds_total counter",
		`mccio_rounds_total{op="write"} 3`,
		"# TYPE mccio_node_mem_used_bytes gauge",
		`mccio_node_mem_used_bytes{node="0"} 1.048576e+06`,
		"# TYPE pfs_request_bytes histogram",
		`pfs_request_bytes_bucket{op="write",le="1024"} 1`,
		`pfs_request_bytes_bucket{op="write",le="4096"} 2`,
		`pfs_request_bytes_bucket{op="write",le="+Inf"} 3`,
		`pfs_request_bytes_count{op="write"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("a_total", "help a", "op", "read").Add(7)
	h := r.Histogram("b_bytes", "", []float64{10})
	h.Observe(5)
	h.Observe(50) // +Inf bucket: must survive JSON

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Get("a_total", map[string]string{"op": "read"}); !ok || v != 7 {
		t.Fatalf("a_total = %g,%v; want 7,true", v, ok)
	}
	if _, ok := snap.Get("a_total", map[string]string{"op": "write"}); ok {
		t.Fatal("found sample with wrong labels")
	}
	var hist *Sample
	for i := range snap.Families {
		if snap.Families[i].Name == "b_bytes" {
			hist = &snap.Families[i].Samples[0]
		}
	}
	if hist == nil || len(hist.Buckets) != 2 {
		t.Fatalf("histogram snapshot = %+v", hist)
	}
	if !math.IsInf(hist.Buckets[1].UpperBound, 1) || hist.Buckets[1].Count != 1 {
		t.Fatalf("+Inf bucket = %+v", hist.Buckets[1])
	}
}

func TestHandler(t *testing.T) {
	r := New()
	r.Counter("hits_total", "").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "hits_total 1") {
		t.Fatalf("scrape = %q", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("n_total", "")
	h := r.Histogram("v", "", []float64{50})
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 100))
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if c.Value() != 4000 || h.Count() != 4000 {
		t.Fatalf("counter=%g hist=%d, want 4000 each", c.Value(), h.Count())
	}
}

// TestQuantileBucketsMatchesLiveHistogram: the estimate from a
// snapshot's buckets lands within one bucket of the exact quantile of
// what the live histogram observed.
func TestQuantileBucketsMatchesLiveHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("qb_seconds", "", DefSecondsBuckets())
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) * 1e-5) // 0 .. 10ms, uniform
	}
	buckets := r.Snapshot().Families[0].Samples[0].Buckets
	if buckets == nil {
		t.Fatal("histogram missing from snapshot")
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := q * 1000 * 1e-5
		var lo, hi float64 // the bucket holding the exact quantile
		for _, b := range buckets {
			if hi = b.UpperBound; hi >= exact {
				break
			}
			lo = hi
		}
		if got := QuantileBuckets(buckets, q); got < lo || got > hi {
			t.Fatalf("q=%.2f: snapshot estimate %v outside the bucket (%v, %v] of the exact %v", q, got, lo, hi, exact)
		}
	}
}

func TestQuantileBucketsEdges(t *testing.T) {
	if got := QuantileBuckets(nil, 0.5); got != 0 {
		t.Fatalf("empty buckets -> %v, want 0", got)
	}
	b := []Bucket{{UpperBound: 1}, {UpperBound: 2}, {UpperBound: math.Inf(1)}}
	if got := QuantileBuckets(b, 0.5); got != 0 {
		t.Fatalf("zero observations -> %v, want 0", got)
	}
	// Everything in +Inf clamps to the highest finite bound.
	b[2].Count = 10
	if got := QuantileBuckets(b, 0.99); got != 2 {
		t.Fatalf("+Inf bucket -> %v, want 2", got)
	}
}

func TestSumBuckets(t *testing.T) {
	a := []Bucket{{UpperBound: 1, Count: 2}, {UpperBound: math.Inf(1), Count: 1}}
	var dst []Bucket
	dst = SumBuckets(dst, a)
	dst = SumBuckets(dst, a)
	if dst[0].Count != 4 || dst[1].Count != 2 {
		t.Fatalf("summed %+v", dst)
	}
	if a[0].Count != 2 {
		t.Fatal("SumBuckets mutated its source")
	}
	// Mismatched layouts are ignored rather than corrupting dst.
	if got := SumBuckets(dst, a[:1]); got[0].Count != 4 {
		t.Fatalf("mismatched merge %+v", got)
	}
}
