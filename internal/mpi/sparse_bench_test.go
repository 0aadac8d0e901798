package mpi

import "testing"

// benchComm builds a bare communicator for staging-path benchmarks.
// Reset/Stage/Expect touch only the comm's rank and group size, so no
// world or engine is needed — which keeps goroutine-scheduler noise out
// of the allocs/op figure.
func benchComm(rank, size int) *Comm {
	return &Comm{rank: rank, group: make([]int, size)}
}

// BenchmarkSparseRoundStaging is the host-side cost of one exchange
// round's bookkeeping on a 1024-rank communicator with 8 partners:
// Reset the scratch, stage 8 sends, expect 8 receives. This is the
// per-round, per-rank work the engine's request and shuffle exchanges
// do before any virtual-time messaging; it must stay O(partners +
// ranks/64) and allocation-free (TestSparseStagingZeroAllocs).
func BenchmarkSparseRoundStaging(b *testing.B) {
	c := benchComm(5, 1024)
	x := newSparseExchange(c)
	payload := struct{ n int }{1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Reset()
		for k := 0; k < 8; k++ {
			dst := (c.rank + 1 + k*13) % 1024
			x.Stage(dst, &payload, 1<<16)
			x.Expect((c.rank + 1 + k*7) % 1024)
		}
	}
}

// TestSparseStagingZeroAllocs pins the steady state: after the scratch
// is built, rounds of Reset/Stage/Expect must not allocate. Every
// collio round on every rank runs this cycle, so a single allocation
// here multiplies by rounds × ranks.
func TestSparseStagingZeroAllocs(t *testing.T) {
	c := benchComm(5, 1024)
	x := newSparseExchange(c)
	payload := struct{ n int }{1}
	x.Stage(0, &payload, 1)
	x.Reset()
	if avg := testing.AllocsPerRun(200, func() {
		x.Reset()
		for k := 0; k < 8; k++ {
			x.Stage((c.rank+1+k*13)%1024, &payload, 1<<16)
			x.Expect((c.rank + 1 + k*7) % 1024)
		}
	}); avg != 0 {
		t.Fatalf("sparse staging allocates %.1f objects/op, want 0", avg)
	}
}
