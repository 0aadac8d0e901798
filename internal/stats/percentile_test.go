package stats

import (
	"sort"
	"testing"
)

// TestPercentileEmpty documents the degraded behavior: an empty sample
// yields 0 rather than a panic, so summaries of absent data render as
// zero rows.
func TestPercentileEmpty(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil, 50) = %v, want 0", got)
	}
	if got := Percentile([]float64{}, 95); got != 0 {
		t.Errorf("Percentile(empty, 95) = %v, want 0", got)
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	for _, p := range []float64{-1, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(_, %v) did not panic", p)
				}
			}()
			Percentile([]float64{1, 2}, p)
		}()
	}
}

// TestPercentileOfUnsorted: Percentile wants sorted input; on a sorted
// copy of an unsorted sample it finds the extremes and the median.
func TestPercentileOfUnsorted(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, c := range []struct{ p, want float64 }{{50, 5}, {0, 1}, {100, 9}} {
		if got := Percentile(sorted, c.p); got != c.want {
			t.Errorf("Percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestSummarizeUsesSafePercentiles guards the Summarize path that
// feeds bench trajectories: single samples and empty samples must not
// panic and must produce sane medians.
func TestSummarizeUsesSafePercentiles(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Median != 7 || s.P95 != 7 {
		t.Errorf("single sample: median %v p95 %v, want 7 7", s.Median, s.P95)
	}
	z := Summarize(nil)
	if z.N != 0 || z.Median != 0 || z.P95 != 0 {
		t.Errorf("empty sample: %+v, want zero summary", z)
	}
}
