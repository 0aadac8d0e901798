package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/twolayer"
)

// planAllocs runs s.Plan on every rank of a p-rank world of the
// paper's testbed (12 ranks per node) over an IOR layout of 256 KiB × 2
// segments, and returns the heap allocations and bytes made between the
// first rank entering it and the last one leaving. It measures the
// second of two runs, so one-time initialisation is not counted.
func planAllocs(t *testing.T, p int, s iolib.Collective) (mallocs, bytes uint64) {
	t.Helper()
	views := make([]datatype.List, p)
	for r := range views {
		views[r] = interleavedView(r, p, 2, 256<<10)
	}
	for run := 0; run < 2; run++ {
		m, err := cluster.New(cluster.TestbedConfig(p / 12))
		if err != nil {
			t.Fatal(err)
		}
		e := simtime.NewEngine()
		w, err := mpi.NewWorld(e, m, p)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		entered, left := 0, 0
		w.Start(func(c *mpi.Comm) {
			if entered++; entered == 1 {
				runtime.ReadMemStats(&before)
			}
			s.Plan("write", c, views[c.Rank()], &trace.Metrics{})
			if left++; left == p {
				runtime.ReadMemStats(&after)
			}
		})
		runtime.GC()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		mallocs, bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	return mallocs, bytes
}

// TestPlanningAllocationsScaleLinearly is the scaling gate of the
// planning prelude — each strategy's Plan, exactly what iolib.Run calls
// before it runs the schedule: what every rank would derive identically
// from the allgathered metadata is derived once per call, so
// allocations grow like p — at most 2.2× per doubling of the rank
// count. A per-rank re-derivation of anything O(p) makes them grow like
// p² and fails it. Bytes are logged, not gated: the ring's in-flight
// inbox queues are genuinely O(p²).
func TestPlanningAllocationsScaleLinearly(t *testing.T) {
	const cb = 8 * cluster.MiB
	for _, s := range []iolib.Collective{
		collio.TwoPhase{CBBuffer: cb},
		twolayer.Strategy{CBBuffer: cb},
		MCCIO{Opts: DefaultOptions(cluster.TestbedConfig(20), pfs.DefaultConfig())},
	} {
		t.Run(s.Name(), func(t *testing.T) {
			var prevAllocs, prevBytes uint64
			for _, p := range []int{240, 480, 960} {
				allocs, bytes := planAllocs(t, p, s)
				msg := fmt.Sprintf("p=%d: %d allocs, %.1f MB", p, allocs, float64(bytes)/1e6)
				ratio := 0.0
				if prevAllocs > 0 {
					ratio = float64(allocs) / float64(prevAllocs)
					msg += fmt.Sprintf(" (×%.2f allocs, ×%.2f bytes per doubling)", ratio, float64(bytes)/float64(prevBytes))
				}
				if ratio > 2.2 {
					t.Errorf("%s: allocations grew faster than 2.2× per doubling", msg)
				} else {
					t.Log(msg)
				}
				prevAllocs, prevBytes = allocs, bytes
			}
		})
	}
}
