package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/buffer"
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

// collectiveAllocs runs one collective write of s on every rank of a
// p-rank world of the paper's testbed (12 ranks per node) over an IOR
// layout of 256 KiB × 2 segments, and returns the heap allocations and
// bytes made between the first rank entering the measured call and the
// last one leaving it. The measured call is s.Plan, or with run the
// schedule's Run, after a barrier that ends everyone's planning. It
// measures the second of two runs, so one-time initialisation is not
// counted.
func collectiveAllocs(t *testing.T, p int, s iolib.Collective, run bool) (mallocs, bytes uint64) {
	t.Helper()
	views := make([]datatype.List, p)
	for r := range views {
		views[r] = interleavedView(r, p, 2, 256<<10)
	}
	for pass := 0; pass < 2; pass++ {
		m, err := cluster.New(cluster.TestbedConfig(p / 12))
		if err != nil {
			t.Fatal(err)
		}
		fs, err := pfs.New(pfs.DefaultConfig(), m)
		if err != nil {
			t.Fatal(err)
		}
		f := fs.Open("scaling")
		e := simtime.NewEngine()
		w, err := mpi.NewWorld(e, m, p)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		entered, left := 0, 0
		w.Start(func(c *mpi.Comm) {
			view, met := views[c.Rank()], &trace.Metrics{}
			var sub *mpi.Comm
			var sched iolib.Schedule
			data := buffer.New(view.TotalBytes(), true)
			if run {
				sub, sched = s.Plan("write", c, view, met)
				c.Barrier()
			}
			if entered++; entered == 1 {
				runtime.ReadMemStats(&before)
			}
			if run {
				sched.Run("write", f, sub, view, data, met)
			} else {
				s.Plan("write", c, view, met)
			}
			if left++; left == p {
				runtime.ReadMemStats(&after)
			}
		})
		runtime.GC()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		// Both counters only ever grow, so one delta of each cannot wrap;
		// the runs are compared by ratio, never subtracted.
		mallocs, bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	return mallocs, bytes
}

// scaleLinearly measures every strategy's planning (or, with run, its
// schedule's Run) at p = 240, 480 and 960, fails when allocations grow
// faster than 2.2× per doubling, and hands each measurement to check.
func scaleLinearly(t *testing.T, run bool, check func(t *testing.T, s iolib.Collective, p int, bytes uint64)) {
	const cb = 8 * cluster.MiB
	for _, s := range []iolib.Collective{
		collio.TwoPhase{CBBuffer: cb},
		twolayer.Strategy{CBBuffer: cb},
		MCCIO{Opts: DefaultOptions(cluster.TestbedConfig(20), pfs.DefaultConfig())},
	} {
		t.Run(s.Name(), func(t *testing.T) {
			var prevAllocs, prevBytes uint64
			for _, p := range []int{240, 480, 960} {
				allocs, bytes := collectiveAllocs(t, p, s, run)
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
				check(t, s, p, bytes)
				prevAllocs, prevBytes = allocs, bytes
			}
		})
	}
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
	scaleLinearly(t, false, func(*testing.T, iolib.Collective, int, uint64) {})
}

// TestScheduleRunAllocationsScaleLinearly is the same gate over the
// schedule's Run — the request exchange and the rounds. Every per-rank
// structure of a collective is sized by the rank's peers, not by the
// communicator, so allocations grow like p; a p-length array per rank
// makes the bytes grow like p². Those are gated for two-phase at
// p = 960, where its 80 aggregators each receive from every rank.
func TestScheduleRunAllocationsScaleLinearly(t *testing.T) {
	scaleLinearly(t, true, func(t *testing.T, s iolib.Collective, p int, bytes uint64) {
		if _, ok := s.(collio.TwoPhase); ok && p == 960 && bytes > 30e6 {
			t.Errorf("p=%d: Run allocated %.1f MB, want at most 30 MB", p, float64(bytes)/1e6)
		}
	})
}
