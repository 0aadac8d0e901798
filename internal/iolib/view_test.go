package iolib

import (
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/datatype"
	"repro/internal/stats"
)

// fillViewBuffer lays pattern bytes into a flat buffer as the
// concatenation of view segments, using each segment's file offset —
// so any correct pack/shuffle/unpack chain reproduces Pattern(tag, fileOff).
func fillViewBuffer(view datatype.List, tag uint64) buffer.Buf {
	buf := buffer.NewReal(view.TotalBytes())
	var pos int64
	for _, s := range view {
		buf.Slice(pos, s.Len).Fill(tag, s.Off)
		pos += s.Len
	}
	return buf
}

func TestViewIndexLookup(t *testing.T) {
	view := datatype.List{{Off: 10, Len: 5}, {Off: 20, Len: 5}, {Off: 100, Len: 10}}
	vi := NewViewIndex(view)
	cases := []struct {
		fileOff int64
		seg     int
		bufOff  int64
	}{{10, 0, 0}, {14, 0, 4}, {20, 1, 5}, {100, 2, 10}, {109, 2, 19}}
	for _, c := range cases {
		i := vi.segContaining(c.fileOff)
		if i != c.seg {
			t.Fatalf("segContaining(%d)=%d, want %d", c.fileOff, i, c.seg)
		}
		if got := vi.bufOffset(i, c.fileOff); got != c.bufOff {
			t.Fatalf("bufOffset(%d)=%d, want %d", c.fileOff, got, c.bufOff)
		}
	}
	for _, off := range []int64{0, 9, 15, 19, 25, 110} {
		if i := vi.segContaining(off); i != -1 {
			t.Fatalf("segContaining(%d)=%d, want -1", off, i)
		}
	}
}

func TestNonCanonicalViewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewViewIndex(datatype.List{{Off: 10, Len: 5}, {Off: 5, Len: 5}})
}

func TestPackExtractsClippedBytes(t *testing.T) {
	view := datatype.List{{Off: 0, Len: 10}, {Off: 20, Len: 10}}
	vi := NewViewIndex(view)
	data := fillViewBuffer(view, 3)
	segs, packed := vi.Pack(data, 5, 25)
	if !segs.Equal(datatype.List{{Off: 5, Len: 5}, {Off: 20, Len: 5}}) {
		t.Fatalf("segs %v", segs)
	}
	if packed.Len() != 10 {
		t.Fatalf("packed %d bytes", packed.Len())
	}
	if i := packed.Slice(0, 5).Verify(3, 5); i != -1 {
		t.Fatalf("first piece mismatch at %d", i)
	}
	if i := packed.Slice(5, 5).Verify(3, 20); i != -1 {
		t.Fatalf("second piece mismatch at %d", i)
	}
}

func TestPackPhantomKeepsLengths(t *testing.T) {
	view := datatype.List{{Off: 0, Len: 10}, {Off: 20, Len: 10}}
	vi := NewViewIndex(view)
	segs, packed := vi.Pack(buffer.NewPhantom(20), 5, 25)
	if !packed.Phantom() || packed.Len() != 10 || segs.TotalBytes() != 10 {
		t.Fatalf("phantom pack: %v %d", segs, packed.Len())
	}
}

func TestUnpackInvertsPack(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		raw := make([]datatype.Segment, 1+r.Intn(20))
		for i := range raw {
			raw[i] = datatype.Segment{Off: r.Int63n(2000), Len: 1 + r.Int63n(100)}
		}
		view := datatype.Normalize(raw)
		vi := NewViewIndex(view)
		data := fillViewBuffer(view, seed)
		lo, hi := view.Extent()
		cutA := lo + r.Int63n(hi-lo+1)
		cutB := lo + r.Int63n(hi-lo+1)
		if cutA > cutB {
			cutA, cutB = cutB, cutA
		}
		segs, packed := vi.Pack(data, cutA, cutB)
		blank := buffer.NewReal(view.TotalBytes())
		vi.Unpack(blank, segs, packed)
		// Every unpacked byte must match the pattern at its file offset.
		var pos int64
		for _, s := range view {
			for _, c := range segs.Clip(s.Off, s.End()) {
				rel := c.Off - s.Off
				if i := blank.Slice(pos+rel, c.Len).Verify(seed, c.Off); i != -1 {
					return false
				}
			}
			pos += s.Len
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestScatterGatherRegionRoundTrip(t *testing.T) {
	segs := datatype.List{{Off: 105, Len: 5}, {Off: 120, Len: 10}}
	payload := buffer.NewReal(15)
	payload.Slice(0, 5).Fill(9, 105)
	payload.Slice(5, 10).Fill(9, 120)
	region := buffer.NewReal(50) // file [100, 150)
	ScatterIntoRegion(region, 100, segs, payload)
	if i := region.Slice(5, 5).Verify(9, 105); i != -1 {
		t.Fatalf("scatter first seg mismatch at %d", i)
	}
	back := GatherFromRegion(region, 100, segs)
	if back.Len() != 15 {
		t.Fatalf("gather %d bytes", back.Len())
	}
	if i := back.Slice(0, 5).Verify(9, 105); i != -1 {
		t.Fatalf("gather mismatch at %d", i)
	}
	if i := back.Slice(5, 10).Verify(9, 120); i != -1 {
		t.Fatalf("gather mismatch at %d", i)
	}
}

func TestSieveBatchesRespectBufSize(t *testing.T) {
	view := datatype.List{{Off: 0, Len: 10}, {Off: 100, Len: 10}, {Off: 200, Len: 10}, {Off: 5000, Len: 10}}
	b := (SieveOptions{BufSize: 300}).batches(view)
	if len(b) != 2 {
		t.Fatalf("%d batches, want 2", len(b))
	}
	if len(b[0]) != 3 || len(b[1]) != 1 {
		t.Fatalf("batch sizes %d,%d", len(b[0]), len(b[1]))
	}
}

func TestSieveBatchesGapFraction(t *testing.T) {
	// Two tiny segments 1000 apart: hole fraction ~0.99 > 0.5 → split.
	view := datatype.List{{Off: 0, Len: 10}, {Off: 1000, Len: 10}}
	b := (SieveOptions{BufSize: 1 << 20, MaxGapFrac: 0.5}).batches(view)
	if len(b) != 2 {
		t.Fatalf("%d batches, want 2 (gap too sparse to sieve)", len(b))
	}
}

func TestSieveDisabledOneBatchPerSegment(t *testing.T) {
	view := datatype.List{{Off: 0, Len: 10}, {Off: 20, Len: 10}, {Off: 40, Len: 10}}
	b := (SieveOptions{}).batches(view)
	if len(b) != 3 {
		t.Fatalf("%d batches, want 3", len(b))
	}
}

func TestBatchesPartitionView(t *testing.T) {
	f := func(seed uint64, bufSize uint32) bool {
		r := stats.NewRNG(seed)
		raw := make([]datatype.Segment, 1+r.Intn(30))
		for i := range raw {
			raw[i] = datatype.Segment{Off: r.Int63n(5000), Len: 1 + r.Int63n(200)}
		}
		view := datatype.Normalize(raw)
		opts := SieveOptions{BufSize: int64(bufSize % 4096), MaxGapFrac: 0.8}
		var total int64
		var segCount int
		for _, b := range opts.batches(view) {
			if len(b) == 0 {
				return false
			}
			total += b.TotalBytes()
			segCount += len(b)
		}
		return total == view.TotalBytes() && segCount == len(view)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
