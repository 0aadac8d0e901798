package datatype

import "fmt"

// Type is a flattenable derived datatype: it describes where one
// instance of the type's data lands in a file, as byte segments
// relative to the instance origin.
type Type interface {
	// Segments appends the instance's byte segments, displaced by disp,
	// to dst and returns the extended slice. Output is canonical when
	// the type itself has no internal overlap (all types here qualify).
	Segments(dst List, disp int64) List
	// Size is the number of data bytes in one instance.
	Size() int64
	// Extent is the span in the file from the instance origin to one
	// past its last byte (including trailing holes for strided types).
	Extent() int64
}

// Contig is N contiguous bytes.
type Contig struct{ N int64 }

// Segments implements Type.
func (c Contig) Segments(dst List, disp int64) List {
	if c.N == 0 {
		return dst
	}
	return append(dst, Segment{Off: disp, Len: c.N})
}

// Size implements Type.
func (c Contig) Size() int64 { return c.N }

// Extent implements Type.
func (c Contig) Extent() int64 { return c.N }

// Vector is Count blocks of BlockLen bytes placed Stride bytes apart —
// the classic strided access of interleaved benchmarks. Stride must be
// ≥ BlockLen.
type Vector struct {
	Count    int64
	BlockLen int64
	Stride   int64
}

// Segments implements Type.
func (v Vector) Segments(dst List, disp int64) List {
	if v.Stride < v.BlockLen {
		panic(fmt.Sprintf("datatype: vector stride %d < blocklen %d", v.Stride, v.BlockLen))
	}
	for i := int64(0); i < v.Count; i++ {
		if v.BlockLen > 0 {
			dst = append(dst, Segment{Off: disp + i*v.Stride, Len: v.BlockLen})
		}
	}
	return dst
}

// Size implements Type.
func (v Vector) Size() int64 { return v.Count * v.BlockLen }

// Extent implements Type.
func (v Vector) Extent() int64 {
	if v.Count == 0 {
		return 0
	}
	return (v.Count-1)*v.Stride + v.BlockLen
}

// Subarray3D is a local block of a row-major 3-D global array, the
// access pattern of ROMIO's coll_perf benchmark: each rank owns the
// block Local anchored at Start inside Global, with Elem bytes per
// element. Contiguous runs are whole innermost-dimension rows of the
// local block.
type Subarray3D struct {
	Global [3]int64 // global array dimensions (x, y, z), z contiguous
	Local  [3]int64 // local block dimensions
	Start  [3]int64 // local block origin in global coordinates
	Elem   int64    // bytes per element
}

// Validate rejects blocks that stick out of the global array.
func (s Subarray3D) Validate() error {
	for d := 0; d < 3; d++ {
		if s.Local[d] < 0 || s.Start[d] < 0 || s.Start[d]+s.Local[d] > s.Global[d] {
			return fmt.Errorf("datatype: subarray dim %d: start %d + local %d > global %d",
				d, s.Start[d], s.Local[d], s.Global[d])
		}
	}
	if s.Elem <= 0 {
		return fmt.Errorf("datatype: subarray elem size %d", s.Elem)
	}
	return nil
}

// Segments implements Type. When the local block spans entire rows (or
// entire planes) the runs are merged, so a rank owning a full
// contiguous slab produces one segment, not Local[0]*Local[1].
func (s Subarray3D) Segments(dst List, disp int64) List {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if s.Local[0] == 0 || s.Local[1] == 0 || s.Local[2] == 0 {
		return dst
	}
	rowBytes := s.Local[2] * s.Elem
	fullRows := s.Local[2] == s.Global[2]
	fullPlanes := fullRows && s.Local[1] == s.Global[1]
	switch {
	case fullPlanes:
		// The whole block is one contiguous slab of planes.
		off := disp + s.Start[0]*s.Global[1]*s.Global[2]*s.Elem
		return append(dst, Segment{Off: off, Len: s.Local[0] * s.Global[1] * s.Global[2] * s.Elem})
	case fullRows:
		// Each x-plane of the block is contiguous.
		for x := int64(0); x < s.Local[0]; x++ {
			off := disp + ((s.Start[0]+x)*s.Global[1]*s.Global[2]+s.Start[1]*s.Global[2])*s.Elem
			dst = append(dst, Segment{Off: off, Len: s.Local[1] * s.Global[2] * s.Elem})
		}
		return dst
	default:
		for x := int64(0); x < s.Local[0]; x++ {
			for y := int64(0); y < s.Local[1]; y++ {
				off := disp + ((s.Start[0]+x)*s.Global[1]*s.Global[2]+
					(s.Start[1]+y)*s.Global[2]+s.Start[2])*s.Elem
				dst = append(dst, Segment{Off: off, Len: rowBytes})
			}
		}
		return dst
	}
}

// Size implements Type.
func (s Subarray3D) Size() int64 {
	return s.Local[0] * s.Local[1] * s.Local[2] * s.Elem
}

// Extent implements Type.
func (s Subarray3D) Extent() int64 {
	return s.Global[0] * s.Global[1] * s.Global[2] * s.Elem
}
