package buffer

import (
	"testing"
	"testing/quick"
)

func TestRealRoundTrip(t *testing.T) {
	b := NewReal(64)
	b.Fill(1, 100)
	if i := b.Verify(1, 100); i != -1 {
		t.Fatalf("mismatch at %d after Fill", i)
	}
	if i := b.Verify(2, 100); i == -1 {
		t.Fatal("wrong tag verified")
	}
	if i := b.Verify(1, 101); i == -1 {
		t.Fatal("shifted offset verified")
	}
}

func TestPhantomCarriesOnlyLength(t *testing.T) {
	b := NewPhantom(1 << 40) // 1 TiB costs nothing
	if b.Len() != 1<<40 || !b.Phantom() {
		t.Fatalf("bad phantom: len=%d phantom=%v", b.Len(), b.Phantom())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes() on phantom did not panic")
		}
	}()
	_ = b.Bytes()
}

func TestSliceAliasesParent(t *testing.T) {
	b := NewReal(10)
	s := b.Slice(2, 4)
	s.Bytes()[0] = 0xAB
	if b.Bytes()[2] != 0xAB {
		t.Fatal("slice does not alias parent")
	}
	if s.Len() != 4 {
		t.Fatalf("slice len %d, want 4", s.Len())
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	b := NewReal(10)
	for _, c := range []struct{ off, n int64 }{{-1, 1}, {0, 11}, {8, 3}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("slice(%d,%d) did not panic", c.off, c.n)
				}
			}()
			b.Slice(c.off, c.n)
		}()
	}
}

func TestCopyRealToReal(t *testing.T) {
	src := NewReal(16)
	src.Fill(9, 0)
	dst := NewReal(16)
	if n := Copy(dst, src); n != 16 {
		t.Fatalf("copied %d, want 16", n)
	}
	if i := dst.Verify(9, 0); i != -1 {
		t.Fatalf("dst mismatch at %d", i)
	}
}

func TestCopyShorterSideWins(t *testing.T) {
	src := NewReal(8)
	dst := NewReal(4)
	if n := Copy(dst, src); n != 4 {
		t.Fatalf("copied %d, want 4", n)
	}
	if n := Copy(NewReal(8), NewReal(2)); n != 2 {
		t.Fatalf("copied %d, want 2", n)
	}
}

func TestCopyPhantomSourceZeroesRealDest(t *testing.T) {
	dst := NewReal(8)
	dst.Fill(1, 0)
	Copy(dst, NewPhantom(8))
	for i, v := range dst.Bytes() {
		if v != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, v)
		}
	}
}

func TestCopyPhantomDestIsNoop(t *testing.T) {
	src := NewReal(8)
	src.Fill(1, 0)
	if n := Copy(NewPhantom(8), src); n != 8 {
		t.Fatalf("copied %d, want 8", n)
	}
}

func TestPatternDistinguishesStreamsAndOffsets(t *testing.T) {
	f := func(tag uint64, off int64) bool {
		if off < 0 {
			off = -off
		}
		// Adjacent offsets of the same stream rarely collide for all of
		// 8 consecutive bytes; require at least one difference.
		diff := false
		for i := int64(0); i < 8; i++ {
			if Pattern(tag, off+i) != Pattern(tag+1, off+i) {
				diff = true
			}
		}
		return diff
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewModeSwitch(t *testing.T) {
	if New(5, true).Phantom() != true || New(5, false).Phantom() != false {
		t.Fatal("New mode switch broken")
	}
}
