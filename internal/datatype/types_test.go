package datatype

import (
	"testing"
	"testing/quick"
)

func TestContig(t *testing.T) {
	l := Contig{N: 100}.Segments(nil, 50)
	if !List(l).Equal(List{{50, 100}}) {
		t.Fatalf("got %v", l)
	}
	if (Contig{N: 100}).Size() != 100 || (Contig{N: 100}).Extent() != 100 {
		t.Fatal("size/extent wrong")
	}
	if l := (Contig{}).Segments(nil, 0); len(l) != 0 {
		t.Fatalf("empty contig produced %v", l)
	}
}

func TestVector(t *testing.T) {
	v := Vector{Count: 3, BlockLen: 4, Stride: 10}
	l := v.Segments(nil, 100)
	want := List{{100, 4}, {110, 4}, {120, 4}}
	if !List(l).Equal(want) {
		t.Fatalf("got %v, want %v", l, want)
	}
	if v.Size() != 12 || v.Extent() != 24 {
		t.Fatalf("size=%d extent=%d", v.Size(), v.Extent())
	}
}

func TestVectorBadStridePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Vector{Count: 1, BlockLen: 10, Stride: 5}.Segments(nil, 0)
}

func TestSubarray3DInteriorBlock(t *testing.T) {
	s := Subarray3D{
		Global: [3]int64{4, 4, 4},
		Local:  [3]int64{2, 2, 2},
		Start:  [3]int64{1, 1, 1},
		Elem:   1,
	}
	l := s.Segments(nil, 0)
	// Rows at (x,y) ∈ {1,2}×{1,2}, z=1..2: offset = x*16 + y*4 + 1.
	want := List{{21, 2}, {25, 2}, {37, 2}, {41, 2}}
	if !List(l).Equal(want) {
		t.Fatalf("got %v, want %v", l, want)
	}
	if s.Size() != 8 {
		t.Fatalf("size %d", s.Size())
	}
}

func TestSubarray3DFullRowsMerge(t *testing.T) {
	s := Subarray3D{
		Global: [3]int64{4, 4, 4},
		Local:  [3]int64{2, 2, 4}, // full z rows
		Start:  [3]int64{0, 2, 0},
		Elem:   2,
	}
	l := s.Segments(nil, 0)
	// Each x-plane: y=2..3, z full => 2*4*2=16 bytes at x*32 + 2*8.
	want := List{{16, 16}, {48, 16}}
	if !List(l).Equal(want) {
		t.Fatalf("got %v, want %v", l, want)
	}
}

func TestSubarray3DFullPlanesSingleSegment(t *testing.T) {
	s := Subarray3D{
		Global: [3]int64{8, 4, 4},
		Local:  [3]int64{2, 4, 4},
		Start:  [3]int64{4, 0, 0},
		Elem:   1,
	}
	l := s.Segments(nil, 0)
	if !List(l).Equal(List{{64, 32}}) {
		t.Fatalf("got %v", l)
	}
}

func TestSubarray3DValidate(t *testing.T) {
	bad := Subarray3D{Global: [3]int64{4, 4, 4}, Local: [3]int64{2, 2, 2}, Start: [3]int64{3, 0, 0}, Elem: 1}
	if bad.Validate() == nil {
		t.Fatal("overflowing block validated")
	}
	if (Subarray3D{Global: [3]int64{4, 4, 4}, Local: [3]int64{1, 1, 1}, Elem: 0}).Validate() == nil {
		t.Fatal("zero elem validated")
	}
}

// TestBlockDecompositionTiles checks the invariant coll_perf depends
// on: a full 3-D block decomposition across P ranks covers the global
// array exactly once.
func TestBlockDecompositionTiles(t *testing.T) {
	f := func(seed uint64) bool {
		dims := [3]int64{4, 6, 8}
		procs := [3]int64{2, 3, 2}
		var all List
		for px := int64(0); px < procs[0]; px++ {
			for py := int64(0); py < procs[1]; py++ {
				for pz := int64(0); pz < procs[2]; pz++ {
					s := Subarray3D{
						Global: dims,
						Local:  [3]int64{dims[0] / procs[0], dims[1] / procs[1], dims[2] / procs[2]},
						Start:  [3]int64{px * dims[0] / procs[0], py * dims[1] / procs[1], pz * dims[2] / procs[2]},
						Elem:   4,
					}
					all = s.Segments(all, 0)
				}
			}
		}
		n := Normalize(all)
		total := dims[0] * dims[1] * dims[2] * 4
		lo, hi := n.Extent()
		return len(n) == 1 && lo == 0 && hi == total && n.TotalBytes() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestTiledVector lays three instances of a vector end to end at its
// extent — MPI_FILE_SET_VIEW with a repeating filetype — through
// Segments' displacement argument.
func TestTiledVector(t *testing.T) {
	v := Vector{Count: 2, BlockLen: 2, Stride: 4}
	var segs List
	for i := int64(0); i < 3; i++ { // extent 6: instances at 0, 6, 12
		segs = v.Segments(segs, i*v.Extent())
	}
	l := Normalize(segs)
	want := List{{0, 2}, {4, 4}, {10, 4}, {16, 2}}
	if !l.Equal(want) {
		t.Fatalf("got %v, want %v", l, want)
	}
	if l.TotalBytes() != 3*v.Size() {
		t.Fatalf("bytes %d", l.TotalBytes())
	}
}

func TestTypeSizeMatchesSegments(t *testing.T) {
	types := []Type{
		Contig{N: 77},
		Vector{Count: 5, BlockLen: 3, Stride: 9},
		Subarray3D{Global: [3]int64{6, 6, 6}, Local: [3]int64{2, 3, 4}, Start: [3]int64{1, 2, 0}, Elem: 8},
	}
	for _, ty := range types {
		l := Normalize(ty.Segments(nil, 0))
		if l.TotalBytes() != ty.Size() {
			t.Errorf("%T: segments carry %d bytes, Size()=%d", ty, l.TotalBytes(), ty.Size())
		}
		if _, hi := l.Extent(); hi > ty.Extent() {
			t.Errorf("%T: segments reach %d beyond extent %d", ty, hi, ty.Extent())
		}
	}
}
