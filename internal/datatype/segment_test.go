package datatype

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestNormalizeMergesAndSorts(t *testing.T) {
	l := Normalize([]Segment{{10, 5}, {0, 5}, {5, 5}, {30, 2}, {14, 3}, {40, 0}})
	want := List{{0, 17}, {30, 2}}
	if !l.Equal(want) {
		t.Fatalf("got %v, want %v", l, want)
	}
	if !l.IsCanonical() {
		t.Fatal("not canonical")
	}
}

func TestNormalizeNegativeLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Normalize([]Segment{{0, -1}})
}

func randomSegs(r *stats.RNG, n int) []Segment {
	segs := make([]Segment, n)
	for i := range segs {
		segs[i] = Segment{Off: r.Int63n(10000), Len: r.Int63n(500)}
	}
	return segs
}

func TestNormalizePropertyCanonicalAndCovering(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		segs := randomSegs(r, 1+r.Intn(60))
		l := Normalize(segs)
		if !l.IsCanonical() {
			return false
		}
		// Every input byte must be covered, and coverage count in the
		// union sense must match: check via a bitmap.
		covered := make(map[int64]bool)
		for _, s := range segs {
			for o := s.Off; o < s.End(); o++ {
				covered[o] = true
			}
		}
		var union int64
		for _, s := range l {
			for o := s.Off; o < s.End(); o++ {
				if !covered[o] {
					return false // invented a byte
				}
				union++
			}
		}
		return union == int64(len(covered))
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestClipBasics(t *testing.T) {
	l := Normalize([]Segment{{0, 10}, {20, 10}, {40, 10}})
	cases := []struct {
		lo, hi int64
		want   List
	}{
		{0, 50, List{{0, 10}, {20, 10}, {40, 10}}},
		{5, 25, List{{5, 5}, {20, 5}}},
		{10, 20, nil},
		{25, 25, nil},
		{45, 100, List{{45, 5}}},
		{-10, 5, List{{0, 5}}},
	}
	for _, c := range cases {
		got := l.Clip(c.lo, c.hi)
		if !got.Equal(c.want) {
			t.Errorf("Clip(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestClipPropertyPartition(t *testing.T) {
	// Clipping a list at a cut point partitions its bytes exactly.
	f := func(seed uint64, cutRaw int64) bool {
		r := stats.NewRNG(seed)
		l := Normalize(randomSegs(r, 1+r.Intn(40)))
		lo, hi := l.Extent()
		if hi == lo {
			return true
		}
		cut := lo + (cutRaw%(hi-lo)+hi-lo)%(hi-lo)
		a, b := l.Clip(lo, cut), l.Clip(cut, hi)
		return a.TotalBytes()+b.TotalBytes() == l.TotalBytes() &&
			a.IsCanonical() && b.IsCanonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHoles(t *testing.T) {
	l := List{{0, 10}, {15, 5}, {30, 5}}
	h := l.Holes()
	if !h.Equal(List{{10, 5}, {20, 10}}) {
		t.Fatalf("holes %v", h)
	}
	if n := (List{{5, 10}}).Holes(); len(n) != 0 {
		t.Fatalf("single segment has holes %v", n)
	}
}

func TestHolesPlusDataEqualsExtent(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		l := Normalize(randomSegs(r, 1+r.Intn(40)))
		if len(l) == 0 {
			return true
		}
		lo, hi := l.Extent()
		return l.TotalBytes()+l.Holes().TotalBytes() == hi-lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitAt cuts a list at an offset inside a segment with two Clips:
// the segment straddling the cut is divided, nothing is lost.
func TestSplitAt(t *testing.T) {
	l := List{{0, 10}, {20, 10}}
	lo, hi := l.Extent()
	a, b := l.Clip(lo, 5), l.Clip(5, hi)
	if !a.Equal(List{{0, 5}}) || !b.Equal(List{{5, 5}, {20, 10}}) {
		t.Fatalf("split %v / %v", a, b)
	}
}

func TestTotalBytesAndExtent(t *testing.T) {
	l := List{{10, 5}, {30, 5}}
	if l.TotalBytes() != 10 {
		t.Fatalf("total %d", l.TotalBytes())
	}
	lo, hi := l.Extent()
	if lo != 10 || hi != 35 {
		t.Fatalf("extent [%d,%d)", lo, hi)
	}
	lo, hi = (List{}).Extent()
	if lo != 0 || hi != 0 {
		t.Fatalf("empty extent [%d,%d)", lo, hi)
	}
}
