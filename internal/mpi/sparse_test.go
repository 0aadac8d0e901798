package mpi

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/simtime"
)

// sparseStage is one Stage call of a differential round.
type sparseStage struct {
	dst int
	v   int
	n   int64
}

// delivery is one value a rank received in a round, in Received order.
type delivery struct{ src, v int }

// sparseRounds draws rounds of random stage calls for p ranks: each
// rank stages to a few random members, itself sometimes, and restages
// some destinations with a new value; in every round one rank stages
// to all members, so every mask word is exercised.
func sparseRounds(rng *rand.Rand, p, rounds int) [][][]sparseStage {
	out := make([][][]sparseStage, rounds)
	for k := range out {
		out[k] = make([][]sparseStage, p)
		dense := rng.IntN(p)
		for src := range p {
			var dsts []int
			if src == dense {
				dsts = rng.Perm(p)
			} else {
				for range rng.IntN(5) {
					dsts = append(dsts, rng.IntN(p))
				}
				if rng.IntN(4) == 0 {
					dsts = append(dsts, src)
				}
			}
			for i, dst := range dsts {
				out[k][src] = append(out[k][src], sparseStage{dst: dst, v: (k*p+src)*p + dst + i*p*p*rounds, n: int64(rng.IntN(3)) << 12})
			}
		}
	}
	return out
}

// runSparse runs the drawn rounds on a fresh p-rank world, through
// SparseExchange or AlltoallSparseInto, and returns what every rank
// received per round, the final virtual time and the events scheduled.
func runSparse(t *testing.T, p int, rounds [][][]sparseStage, scratch bool) ([][][]delivery, float64, uint64) {
	t.Helper()
	e := simtime.NewEngine()
	w, err := NewWorld(e, testMachine(t, (p+7)/8, 8), p)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][][]delivery, p)
	w.Start(func(c *Comm) {
		me := c.Rank()
		for _, round := range rounds {
			var recv []delivery
			if scratch {
				x := c.SparseScratch()
				x.Reset()
				for src, stages := range round {
					for _, s := range stages {
						if src == me {
							x.Stage(s.dst, s.v, s.n)
						} else if s.dst == me {
							x.Expect(src)
						}
					}
				}
				x.Exchange()
				x.Received(func(src int, v any) { recv = append(recv, delivery{src, v.(int)}) })
			} else {
				out, vals, bytes, present := make([]any, p), make([]any, p), make([]int64, p), make([]bool, p)
				for src, stages := range round {
					for _, s := range stages {
						if src == me {
							vals[s.dst], bytes[s.dst] = s.v, s.n
						} else if s.dst == me {
							present[src] = true
						}
					}
				}
				c.AlltoallSparseInto(out, vals, bytes, present)
				for src, v := range out {
					if v != nil {
						recv = append(recv, delivery{src, v.(int)})
					}
				}
			}
			got[me] = append(got[me], recv)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return got, e.Now(), e.Stats().Scheduled
}

// TestSparseExchangeMatchesAlltoallSparseInto is the differential check
// of the two sparse exchanges: on random rounds, with self-stages and
// restages to one destination, both deliver the same value from every
// source in the same order, end at the same virtual instant and
// schedule the same events.
func TestSparseExchangeMatchesAlltoallSparseInto(t *testing.T) {
	for _, p := range []int{5, 64, 65, 130} {
		rounds := sparseRounds(rand.New(rand.NewPCG(uint64(p), 41)), p, 3)
		want, wantNow, wantEvents := runSparse(t, p, rounds, false)
		got, now, events := runSparse(t, p, rounds, true)
		for r := range p {
			for k := range rounds {
				if !slices.Equal(got[r][k], want[r][k]) {
					t.Errorf("p=%d rank %d round %d: SparseExchange delivered %v, AlltoallSparseInto %v", p, r, k, got[r][k], want[r][k])
				}
			}
		}
		if now != wantNow || events != wantEvents {
			t.Errorf("p=%d: SparseExchange ends at %g after %d events, AlltoallSparseInto at %g after %d", p, now, events, wantNow, wantEvents)
		}
	}
}

// TestSparseScratchSizedByMaskWords pins the scratch footprint: on a
// 9,600-member communicator a new SparseExchange holds its bitmasks and
// a constant, not p-length arrays — what every rank of every collective
// holds at extreme scale.
func TestSparseScratchSizedByMaskWords(t *testing.T) {
	const p, n = 9600, 64
	c := benchComm(5, p)
	keep := make([]*SparseExchange, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewSparseExchange(c)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	if limit := uint64(3*((p+63)/64)*8 + 512); per > limit {
		t.Fatalf("NewSparseExchange on %d members allocates %d bytes, want at most %d", p, per, limit)
	}
}
