package iolib

import (
	"fmt"
	"sort"

	"repro/internal/buffer"
	"repro/internal/datatype"
)

// ViewIndex binds a rank's file view (canonical segment list) to its
// flat local buffer and answers, in O(log n), where a file byte lives
// in that buffer. Two-phase I/O clips the view against every file
// domain each round, so this lookup is on the hot path.
type ViewIndex struct {
	view   datatype.List
	prefix []int64 // prefix[i] = buffer offset of view[i]'s first byte
}

// NewViewIndex builds the index. view must be canonical.
func NewViewIndex(view datatype.List) *ViewIndex {
	if !view.IsCanonical() {
		panic("iolib: view is not canonical")
	}
	prefix := make([]int64, len(view))
	var sum int64
	for i, s := range view {
		prefix[i] = sum
		sum += s.Len
	}
	return &ViewIndex{view: view, prefix: prefix}
}

// View returns the indexed segment list.
func (vi *ViewIndex) View() datatype.List { return vi.view }

// bufOffset maps a file offset inside segment i to its buffer offset.
func (vi *ViewIndex) bufOffset(i int, fileOff int64) int64 {
	return vi.prefix[i] + (fileOff - vi.view[i].Off)
}

// segContaining returns the index of the view segment containing
// fileOff, or -1.
func (vi *ViewIndex) segContaining(fileOff int64) int {
	i := sort.Search(len(vi.view), func(i int) bool { return vi.view[i].End() > fileOff })
	if i < len(vi.view) && vi.view[i].Off <= fileOff {
		return i
	}
	return -1
}

// Pack extracts from data the bytes of every view segment inside
// [lo, hi), in file order, returning the clipped segments and the
// packed payload. A phantom data buffer yields a phantom payload of the
// right length — the same control flow either way.
func (vi *ViewIndex) Pack(data buffer.Buf, lo, hi int64) (datatype.List, buffer.Buf) {
	return vi.PackArena(nil, data, lo, hi)
}

// PackArena is Pack with the clipped segment list drawn from arena a
// (nil a falls back to heap allocation). The returned list obeys the
// arena's lifetime rules: it must be consumed before the arena resets.
func (vi *ViewIndex) PackArena(a *datatype.Arena, data buffer.Buf, lo, hi int64) (datatype.List, buffer.Buf) {
	segs := a.Clip(vi.view, lo, hi)
	total := segs.TotalBytes()
	out := buffer.New(total, data.Phantom())
	if data.Phantom() || total == 0 {
		return segs, out
	}
	var pos int64
	for _, s := range segs {
		i := vi.segContaining(s.Off)
		if i < 0 {
			panic(fmt.Sprintf("iolib: clipped segment %v escaped view", s))
		}
		buffer.Copy(out.Slice(pos, s.Len), data.Slice(vi.bufOffset(i, s.Off), s.Len))
		pos += s.Len
	}
	return segs, out
}

// Unpack stores a packed payload (laid out as segs, which must be
// clipped from this view) back into data at the view's buffer offsets —
// the read-side inverse of Pack.
func (vi *ViewIndex) Unpack(data buffer.Buf, segs datatype.List, src buffer.Buf) {
	if data.Phantom() || src.Phantom() {
		return
	}
	var pos int64
	for _, s := range segs {
		i := vi.segContaining(s.Off)
		if i < 0 {
			panic(fmt.Sprintf("iolib: segment %v not in view", s))
		}
		buffer.Copy(data.Slice(vi.bufOffset(i, s.Off), s.Len), src.Slice(pos, s.Len))
		pos += s.Len
	}
}

// ScatterIntoRegion writes a packed payload into a region buffer that
// represents file range [regionLo, regionLo+region.Len()): aggregators
// use it to assemble their file domain from ranks' shuffle pieces.
func ScatterIntoRegion(region buffer.Buf, regionLo int64, segs datatype.List, src buffer.Buf) {
	if region.Phantom() || src.Phantom() {
		return
	}
	var pos int64
	for _, s := range segs {
		buffer.Copy(region.Slice(s.Off-regionLo, s.Len), src.Slice(pos, s.Len))
		pos += s.Len
	}
}

// GatherFromRegion packs the bytes of segs out of a region buffer — the
// read-side shuffle, aggregator to rank.
func GatherFromRegion(region buffer.Buf, regionLo int64, segs datatype.List) buffer.Buf {
	out := buffer.New(segs.TotalBytes(), region.Phantom())
	if region.Phantom() {
		return out
	}
	var pos int64
	for _, s := range segs {
		buffer.Copy(out.Slice(pos, s.Len), region.Slice(s.Off-regionLo, s.Len))
		pos += s.Len
	}
	return out
}
