package collio_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/iolib"
	"repro/internal/twolayer"
	"repro/internal/workload"
)

// TestFunnelMirrorsSchedule holds the write round's intra-node layer to
// its matching rule on every strategy with mates (two-layer, mccio-2l),
// on a scarce-buffer IOR of two nodes × eight ranks with real bytes:
//   - each mate sends one bundle exactly in the rounds in which its view
//     meets some domain's window, found by a walk over the overlay in
//     effect, and every bundle it sends has pieces;
//   - its leader takes exactly those bundles, once each;
//   - the file bytes verify.
//
// It runs each strategy plainly (ranks stand through the rounds they sit
// out), with every rank taking every round (where each mate's every
// round is checked against the walk, including those it sends nothing
// in), and after leader failovers: a fault schedule kills two of the
// plain run's leaders, and their mates funnel to their successors.
func TestFunnelMirrorsSchedule(t *testing.T) {
	const (
		nodes, perNode = 2, 8
		mem            = 32 << 10
		seed           = 7
	)
	wl := workload.IOR{Ranks: nodes * perNode, BlockSize: 32 << 10, Segments: 8, TransferSize: 32 << 10}
	fc := bench.TestbedFS(seed)
	mc := bench.TestbedMachine(nodes, mem, bench.SigmaBytes, seed)
	mc.CoresPerNode = perNode
	opts := bench.MCCIOOptions(mc, fc, wl.TotalBytes(), mem)
	opts.TwoLayer = true
	for _, st := range []struct {
		name string
		s    iolib.Collective
	}{
		{"two-layer", twolayer.Strategy{CBBuffer: mem}},
		{"mccio-2l", core.MCCIO{Opts: opts}},
	} {
		spec := bench.Spec{Strategy: st.s, Op: "write", Machine: mc, FS: fc, Workload: wl, Verify: true}
		// run runs spec, failing the test on a lost byte, and checks the
		// bundles it funnelled; each mode's name says how ranks ran.
		run := func(mode string, sched *faults.Schedule) (packed, taken []collio.Bundle) {
			key := fmt.Sprintf("%s/%s", st.name, mode)
			spec.Faults = sched
			var err error
			packed, taken = collio.Funnels(func() { _, err = bench.RunOnce(spec) })
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			var sent []collio.Bundle
			for _, b := range packed {
				if (b.Pieces > 0) != b.Meets {
					t.Errorf("%s: rank %d packed %d pieces in group %d round %d, where its view meets a window: %v", key, b.Mate, b.Pieces, b.Group, b.Round, b.Meets)
				}
				if b.Pieces > 0 {
					sent = append(sent, b)
				}
			}
			for _, b := range taken {
				if b.Pieces == 0 || !b.Meets {
					t.Errorf("%s: leader %d took a bundle of %d pieces from rank %d in group %d round %d (view meets a window: %v)", key, b.Leader, b.Pieces, b.Mate, b.Group, b.Round, b.Meets)
				}
			}
			if !slices.Equal(sortedBundles(sent), sortedBundles(taken)) {
				t.Errorf("%s: mates sent %d bundles, leaders took %d, not the same ones", key, len(sent), len(taken))
			}
			if len(sent) == 0 {
				t.Fatalf("%s: no bundle funnelled", key)
			}
			t.Logf("%-20s %4d mate rounds ran, %4d bundles sent and taken", key, len(packed), len(sent))
			return packed, taken
		}

		plainPacked, plainTaken := run("plain", nil)
		var perPacked []collio.Bundle
		collio.PerRound(func() { perPacked, _ = run("per-round", nil) })
		if !slices.Equal(sortedBundles(plainTaken), sortedBundles(nonEmpty(perPacked))) {
			t.Errorf("%s: standing changed which bundles are funnelled", st.name)
		}
		if len(plainPacked) >= len(perPacked) || len(nonEmpty(perPacked)) == len(perPacked) {
			t.Errorf("%s: %d mate rounds plain, %d per round, %d with pieces: no mate sat a round out", st.name, len(plainPacked), len(perPacked), len(nonEmpty(perPacked)))
		}

		// Kill the leaders of the first two bundles taken, each in a round
		// its mates still funnel after.
		var leaders []int
		for _, b := range sortedBundles(plainTaken) {
			if !slices.Contains(leaders, b.Leader) && len(leaders) < 2 {
				leaders = append(leaders, b.Leader)
			}
		}
		kill := faults.Spec{Seed: seed}
		for i, l := range leaders {
			kill.RankFailures = append(kill.RankFailures, faults.RankFailure{Rank: l, Round: 1 + 2*i})
		}
		sched, err := faults.NewSchedule(kill)
		if err != nil {
			t.Fatal(err)
		}
		_, taken := run("leader failover", sched)
		if sched.Failovers() < int64(len(leaders)) {
			t.Fatalf("%s: %d failovers, killing leaders %v", st.name, sched.Failovers(), leaders)
		}
		orphaned := map[int]bool{} // the killed leaders' mates
		for _, b := range plainTaken {
			orphaned[b.Mate] = orphaned[b.Mate] || slices.Contains(leaders, b.Leader)
		}
		if !slices.ContainsFunc(taken, func(b collio.Bundle) bool { return orphaned[b.Mate] && !slices.Contains(leaders, b.Leader) }) {
			t.Errorf("%s: no mate of a killed leader %v funnelled to a successor", st.name, leaders)
		}
	}
}

// bundleOrder orders bundles by group, round, mate and leader.
func bundleOrder(a, b collio.Bundle) int {
	for _, d := range [][2]int{{a.Group, b.Group}, {a.Round, b.Round}, {a.Mate, b.Mate}, {a.Leader, b.Leader}, {a.Pieces, b.Pieces}} {
		if d[0] != d[1] {
			return d[0] - d[1]
		}
	}
	return 0
}

func sortedBundles(bs []collio.Bundle) []collio.Bundle {
	return slices.SortedFunc(slices.Values(bs), bundleOrder)
}

// nonEmpty returns the bundles with pieces.
func nonEmpty(bs []collio.Bundle) []collio.Bundle {
	return slices.DeleteFunc(slices.Clone(bs), func(b collio.Bundle) bool { return b.Pieces == 0 })
}
