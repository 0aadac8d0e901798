// Package buffer abstracts message and I/O payloads so the simulator
// can run in two modes:
//
//   - Real mode: payloads carry actual bytes. Functional tests write
//     patterned data through the whole stack and verify every byte that
//     comes back.
//   - Phantom mode: payloads carry only a length. Large-scale timing
//     runs (e.g. 1080 ranks × 32 MB) move no host memory at all while
//     exercising exactly the same control paths.
//
// A Buf is immutable in length after creation. Mixing a real and a
// phantom Buf in one copy degrades the destination region to
// "unverifiable" only in the sense that phantom sources carry no data;
// the operation itself is well-defined (real destination bytes are
// zeroed) so control flow never branches on mode.
package buffer

import "fmt"

// Buf is a byte payload that either owns real storage or is a phantom
// of a given length.
type Buf struct {
	data    []byte
	n       int64
	phantom bool
}

// NewReal returns a Buf backed by real storage of n bytes.
func NewReal(n int64) Buf {
	if n < 0 {
		panic(fmt.Sprintf("buffer: negative size %d", n))
	}
	return Buf{data: make([]byte, n), n: n}
}

// NewPhantom returns a length-only Buf of n bytes.
func NewPhantom(n int64) Buf {
	if n < 0 {
		panic(fmt.Sprintf("buffer: negative size %d", n))
	}
	return Buf{n: n, phantom: true}
}

// New returns a real or phantom Buf of n bytes depending on mode.
func New(n int64, phantom bool) Buf {
	if phantom {
		return NewPhantom(n)
	}
	return NewReal(n)
}

// Len returns the payload length in bytes.
func (b Buf) Len() int64 { return b.n }

// Phantom reports whether the Buf carries no real bytes.
func (b Buf) Phantom() bool { return b.phantom }

// Bytes returns the underlying storage of a real Buf. It panics for
// phantom Bufs: callers must branch on Phantom() before touching data.
func (b Buf) Bytes() []byte {
	if b.phantom {
		panic("buffer: Bytes() on phantom Buf")
	}
	return b.data
}

// Slice returns the sub-payload [off, off+n). For a real Buf the result
// aliases the parent's storage. It panics on out-of-range arguments.
func (b Buf) Slice(off, n int64) Buf {
	if off < 0 || n < 0 || off+n > b.n {
		panic(fmt.Sprintf("buffer: slice [%d,%d) of %d-byte Buf", off, off+n, b.n))
	}
	if b.phantom {
		return Buf{n: n, phantom: true}
	}
	return Buf{data: b.data[off : off+n], n: n}
}

// Copy copies min(len(dst), len(src)) bytes from src into dst and
// returns the count. If either side is phantom no bytes move; a real
// destination receiving from a phantom source is zero-filled so stale
// data never masquerades as transferred data.
func Copy(dst, src Buf) int64 {
	n := dst.n
	if src.n < n {
		n = src.n
	}
	switch {
	case dst.phantom:
		// Nothing to store.
	case src.phantom:
		clear(dst.data[:n])
	default:
		copy(dst.data[:n], src.data[:n])
	}
	return n
}

// Fill writes a deterministic pattern derived from (tag, fileOffset)
// into a real Buf; phantom Bufs ignore it. Tests use Fill + Verify to
// check end-to-end data integrity across arbitrary shuffles.
func (b Buf) Fill(tag uint64, fileOffset int64) {
	if b.phantom {
		return
	}
	for i := int64(0); i < b.n; i++ {
		b.data[i] = Pattern(tag, fileOffset+i)
	}
}

// Verify checks a real Buf against the deterministic pattern and
// returns the index of the first mismatch, or -1 if all bytes match.
// Phantom Bufs trivially verify.
func (b Buf) Verify(tag uint64, fileOffset int64) int64 {
	if b.phantom {
		return -1
	}
	for i := int64(0); i < b.n; i++ {
		if b.data[i] != Pattern(tag, fileOffset+i) {
			return i
		}
	}
	return -1
}

// Pattern is the byte a correctly functioning stack must deliver at
// fileOffset for stream tag. It mixes both inputs so shifted or
// crossed-stream data is detected.
func Pattern(tag uint64, fileOffset int64) byte {
	x := tag*0x9e3779b97f4a7c15 + uint64(fileOffset)*0xbf58476d1ce4e5b9
	x ^= x >> 29
	return byte(x)
}
