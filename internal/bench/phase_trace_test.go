package bench

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/iolib"
	"repro/internal/obs"
	"repro/internal/twolayer"
	"repro/internal/workload"
)

// tracedSpecs are the strategy/op matrix the acceptance tests run,
// keyed by subtest name: the flat exchange of both planners and each
// under the two-layer exchange ("+combine").
func tracedSpecs(t *testing.T) map[string]Spec {
	t.Helper()
	mcfg := TestbedMachine(4, 8*cluster.MiB, SigmaBytes, 11)
	mcfg.CoresPerNode = 4
	fcfg := TestbedFS(11)
	wl := workload.IOR{Ranks: 16, BlockSize: 256 << 10, Segments: 8}
	opts := MCCIOOptions(mcfg, fcfg, wl.TotalBytes(), 8*cluster.MiB)
	combineOpts := opts
	combineOpts.TwoLayer = true
	specs := map[string]Spec{}
	for name, s := range map[string]iolib.Collective{
		"two-phase":         collio.TwoPhase{CBBuffer: 8 * cluster.MiB},
		"two-phase+combine": twolayer.Strategy{CBBuffer: 8 * cluster.MiB},
		"mccio":             core.MCCIO{Opts: opts},
		"mccio+combine":     core.MCCIO{Opts: combineOpts},
	} {
		for _, op := range []string{"write", "read"} {
			specs[name+"/"+op] = Spec{Strategy: s, Op: op, Machine: mcfg, FS: fcfg, Workload: wl}
		}
	}
	return specs
}

// TestTracedPhaseSumsMatchElapsed is the headline acceptance check:
// virtual time only advances inside traced primitives, so each rank's
// top-level phase spans tile its timeline and their sum must equal the
// operation's elapsed time within 5%.
func TestTracedPhaseSumsMatchElapsed(t *testing.T) {
	for name, spec := range tracedSpecs(t) {
		spec := spec
		t.Run(name, func(t *testing.T) {
			res, sum, err := RunOncePhases(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 {
				t.Fatalf("elapsed %v", res.Elapsed)
			}
			if len(sum.PerRank) != spec.Workload.NumRanks() {
				t.Fatalf("%d rank tracks, want %d", len(sum.PerRank), spec.Workload.NumRanks())
			}
			for rank, phases := range sum.PerRank {
				var got float64
				for _, sec := range phases {
					got += sec
				}
				if diff := got - res.Elapsed; diff < -0.05*res.Elapsed || diff > 0.05*res.Elapsed {
					t.Errorf("rank %d: phase sum %.6fs vs elapsed %.6fs (%.1f%% off)",
						rank, got, res.Elapsed, (got/res.Elapsed-1)*100)
				}
			}
		})
	}
}

// TestTracedChromeExport checks the trace_event output end to end: the
// JSON parses back, every span is well-formed, spans on one (node,
// rank) track either nest or are disjoint, and track timelines are
// monotone.
func TestTracedChromeExport(t *testing.T) {
	for name, spec := range tracedSpecs(t) {
		spec := spec
		t.Run(name, func(t *testing.T) {
			tr := obs.NewTracer()
			spec.Tracer = tr
			if _, err := RunOnce(spec); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tr.WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			events, err := obs.ParseChrome(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			checkTrackNesting(t, events)
		})
	}
}

// checkTrackNesting verifies per-(node,rank) span trees: sorted by
// start time, every span either contains the next or ends before it.
func checkTrackNesting(t *testing.T, events []obs.Event) {
	t.Helper()
	const eps = 1e-9
	tracks := map[[2]int][]obs.Event{}
	spans := 0
	for _, e := range events {
		if e.Kind != obs.KindSpan {
			continue
		}
		if e.T1 < e.T0-eps {
			t.Fatalf("span %s ends before it starts: %+v", e.Phase, e)
		}
		tracks[[2]int{e.Loc.Node, e.Loc.Rank}] = append(tracks[[2]int{e.Loc.Node, e.Loc.Rank}], e)
		spans++
	}
	if spans == 0 {
		t.Fatal("trace has no spans")
	}
	for track, evs := range tracks {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].T0 != evs[j].T0 {
				return evs[i].T0 < evs[j].T0
			}
			return evs[i].T1 > evs[j].T1
		})
		var stack []obs.Event
		prevT0 := evs[0].T0
		for _, e := range evs {
			if e.T0 < prevT0-eps {
				t.Fatalf("track %v: timestamps not monotone", track)
			}
			prevT0 = e.T0
			for len(stack) > 0 && stack[len(stack)-1].T1 <= e.T0+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && e.T1 > stack[len(stack)-1].T1+eps {
				t.Fatalf("track %v: span %s [%.9f,%.9f] escapes enclosing %s [%.9f,%.9f]",
					track, e.Phase, e.T0, e.T1,
					stack[len(stack)-1].Phase, stack[len(stack)-1].T0, stack[len(stack)-1].T1)
			}
			stack = append(stack, e)
		}
	}
}

// TestTracedRunRecordsTaxonomy spot-checks that a memory-conscious run
// emits the event families the subsystem promises: planner instants,
// MPI and PFS detail spans, memory counters, and group/round stamps.
func TestTracedRunRecordsTaxonomy(t *testing.T) {
	// Uniform memory (no variance) so the mem-aware rebalancer leaves
	// the byte-guided groups alone, and a Msggroup of a quarter of the
	// data: four aggregation groups, one per node.
	mcfg := TestbedMachine(4, 8*cluster.MiB, 0, 11)
	mcfg.CoresPerNode = 4
	fcfg := TestbedFS(11)
	wl := workload.IOR{Ranks: 16, BlockSize: 256 << 10, Segments: 8}
	opts := MCCIOOptions(mcfg, fcfg, wl.TotalBytes(), 8*cluster.MiB)
	opts.Msggroup = wl.TotalBytes() / 4
	spec := Spec{Strategy: core.MCCIO{Opts: opts}, Op: "write", Machine: mcfg, FS: fcfg, Workload: wl}
	tr := obs.NewTracer()
	spec.Tracer = tr
	if _, err := RunOnce(spec); err != nil {
		t.Fatal(err)
	}
	seen := map[obs.Phase]bool{}
	rounds, groups := false, false
	for _, e := range tr.Events() {
		seen[e.Phase] = true
		if e.Loc.Round >= 0 {
			rounds = true
		}
		if e.Loc.Group > 0 {
			groups = true
		}
	}
	for _, p := range []obs.Phase{
		obs.PhasePlan, obs.PhaseReqExchange, obs.PhaseBarrier, obs.PhasePack,
		obs.PhaseExchange, obs.PhaseIO, obs.PhaseMPIBarrier, obs.PhaseMPIAlltoall,
		obs.PhasePFSWrite, obs.EventGroupDivision, obs.EventPartition,
		obs.EventPlace, obs.EventStripe, obs.CounterMem,
	} {
		if !seen[p] {
			t.Errorf("trace missing %s events", p)
		}
	}
	if !rounds {
		t.Error("no round-stamped events")
	}
	if !groups {
		t.Error("no group-stamped events (multi-group run expected)")
	}
}

// TestPhaseBreakdownExperiment smoke-tests the bench experiment that
// reports per-phase seconds as a table.
func TestPhaseBreakdownExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	tab, _, err := runMode("phases", Options{Scale: 0.05, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tab.Rows))
	}
	if len(tab.Headers) != 3+len(breakdownPhases) {
		t.Fatalf("%d headers", len(tab.Headers))
	}
}
