package iolib

import (
	"repro/internal/buffer"
	"repro/internal/datatype"
	"repro/internal/pfs"
	"repro/internal/simtime"
)

// SieveOptions tunes independent noncontiguous I/O. Data sieving
// (Thakur/Gropp/Lusk) trades extra bytes for fewer requests: instead of
// one request per tiny segment, read (or read-modify-write) one extent
// covering many segments.
type SieveOptions struct {
	// BufSize caps the extent handled per sieve batch. Zero disables
	// sieving: every segment becomes its own request.
	BufSize int64
	// MaxGapFrac aborts sieving a batch whose holes exceed this
	// fraction of its extent; reading 99% garbage to fetch 1% data
	// loses. 0 means "always sieve within BufSize".
	MaxGapFrac float64
	// WriteRMW allows read-modify-write of holey write batches. It is
	// only safe when the file system provides byte-range locking or the
	// caller guarantees no concurrent writer touches the holes — the
	// same condition ROMIO attaches to write data sieving. When false
	// (the default), holey batches are written as exact per-run
	// requests in one pipelined batch.
	WriteRMW bool
}

// DefaultSieve mirrors ROMIO's ind_rd_buffer_size era defaults.
func DefaultSieve() SieveOptions {
	return SieveOptions{BufSize: 4 << 20, MaxGapFrac: 0.9}
}

// batches greedily groups canonical segments into runs whose extent
// fits opts.BufSize and whose hole fraction stays under MaxGapFrac.
func (o SieveOptions) batches(view datatype.List) []datatype.List {
	if len(view) == 0 {
		return nil
	}
	if o.BufSize <= 0 {
		out := make([]datatype.List, len(view))
		for i, s := range view {
			out[i] = datatype.List{s}
		}
		return out
	}
	var out []datatype.List
	cur := datatype.List{view[0]}
	curLo := view[0].Off
	curBytes := view[0].Len
	for _, s := range view[1:] {
		extent := s.End() - curLo
		holes := extent - (curBytes + s.Len)
		tooMuchGap := o.MaxGapFrac > 0 && float64(holes) > o.MaxGapFrac*float64(extent)
		if extent > o.BufSize || tooMuchGap {
			out = append(out, cur)
			cur = datatype.List{s}
			curLo = s.Off
			curBytes = s.Len
			continue
		}
		cur = append(cur, s)
		curBytes += s.Len
	}
	return append(out, cur)
}

// WriteIndependent performs this rank's noncontiguous write without any
// inter-process coordination. With WriteRMW, a batch with holes is
// read-modify-written as one extent (fast, but needs locking against
// concurrent writers); without it, each run is its own request in a
// pipelined batch — slower on many tiny runs, which is exactly why
// collective I/O exists.
func WriteIndependent(f *pfs.File, p *simtime.Proc, rank int, view datatype.List, data buffer.Buf, opts SieveOptions) {
	vi := NewViewIndex(view)
	for _, batch := range opts.batches(view) {
		lo := batch[0].Off
		hi := batch[len(batch)-1].End()
		_, packed := vi.Pack(data, lo, hi)
		if len(batch) == 1 {
			f.WriteAt(p, rank, lo, packed)
			continue
		}
		if opts.WriteRMW {
			// Read-modify-write the whole extent.
			extent := buffer.New(hi-lo, data.Phantom())
			f.ReadAt(p, rank, lo, extent)
			ScatterIntoRegion(extent, lo, batch, packed)
			f.WriteAt(p, rank, lo, extent)
			continue
		}
		offs := make([]int64, len(batch))
		bufs := make([]buffer.Buf, len(batch))
		var pos int64
		for i, seg := range batch {
			offs[i] = seg.Off
			bufs[i] = packed.Slice(pos, seg.Len)
			pos += seg.Len
		}
		f.WriteVec(p, rank, offs, bufs)
	}
}

// ReadIndependent performs this rank's noncontiguous read with data
// sieving: one extent read per batch, then local gathering.
func ReadIndependent(f *pfs.File, p *simtime.Proc, rank int, view datatype.List, dst buffer.Buf, opts SieveOptions) {
	vi := NewViewIndex(view)
	for _, batch := range opts.batches(view) {
		lo := batch[0].Off
		hi := batch[len(batch)-1].End()
		extent := buffer.New(hi-lo, dst.Phantom())
		f.ReadAt(p, rank, lo, extent)
		vi.Unpack(dst, batch, GatherFromRegion(extent, lo, batch))
	}
}
