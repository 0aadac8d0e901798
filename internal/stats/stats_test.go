package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws from different seeds", same)
	}
}

func TestFloat64InUnitInterval(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnInRange(t *testing.T) {
	f := func(seed uint64, n int) bool {
		if n <= 0 {
			n = -n + 1
		}
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(7)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(10, 3)
	}
	s := Summarize(xs)
	if math.Abs(s.Mean-10) > 0.05 {
		t.Fatalf("mean %g, want ~10", s.Mean)
	}
	if math.Abs(s.Std-3) > 0.05 {
		t.Fatalf("std %g, want ~3", s.Std)
	}
}

func TestClippedNormalRespectsBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 200; i++ {
			v := r.ClippedNormal(5, 50, 1, 9)
			if v < 1 || v > 9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Exp(4)
	}
	if m := sum / n; math.Abs(m-4) > 0.1 {
		t.Fatalf("exp mean %g, want ~4", m)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + int(seed%64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeKnownSample(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Sum != 15 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("std %g, want sqrt(2)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	sorted := []float64{0, 10}
	if got := Percentile(sorted, 50); got != 5 {
		t.Fatalf("p50 = %g, want 5", got)
	}
	if got := Percentile(sorted, 0); got != 0 {
		t.Fatalf("p0 = %g, want 0", got)
	}
	if got := Percentile(sorted, 100); got != 10 {
		t.Fatalf("p100 = %g, want 10", got)
	}
}

func TestPercentileWithinMinMax(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		xs := make([]float64, 1+int(seed%100))
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		s := Summarize(xs)
		return s.Median >= s.Min && s.Median <= s.Max && s.P95 >= s.Min && s.P95 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCV(t *testing.T) {
	if cv := CV([]float64{5, 5, 5, 5}); cv != 0 {
		t.Fatalf("cv of constant sample = %g, want 0", cv)
	}
	if cv := CV(nil); cv != 0 {
		t.Fatalf("cv of empty sample = %g, want 0", cv)
	}
}
