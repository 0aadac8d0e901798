package bench

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// The seed-engine goldens: trajectories (rows plus merged metrics
// snapshot) written by the pre-optimization engine at fixed (scale,
// seed). The hot-path work — pooled extent arenas, flattened event
// queue, cached reserve paths, mailbox flush reuse, sparse-exchange
// scratch — is host-side only by contract: every virtual time, float
// operation order, and event tie-break must be preserved, so the
// trajectory the current engine produces must match these files byte
// for byte. A diff here means an optimization changed simulation
// semantics, not just speed.
func readGolden(t *testing.T, name string) (*BenchFile, []byte) {
	t.Helper()
	g, err := ReadBenchFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	g.Created = ""
	canon, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, canon
}

// runTrajectory runs the named trajectory experiment.
func runTrajectory(name string, o Options, reg *metrics.Registry) (*BenchFile, error) {
	_, b, err := runMode(name, o, reg)
	return b, err
}

// runMode runs the named experiment.
func runMode(name string, o Options, reg *metrics.Registry) (*Table, *BenchFile, error) {
	sel, err := SelectExperiments(name)
	if err != nil {
		return nil, nil, err
	}
	return sel[0].Run(o, reg)
}

// checkGolden runs the experiment at the golden's own (scale, seed) and
// compares canonical encodings.
func checkGolden(t *testing.T, name string, run func(Options) (*BenchFile, error), parallel int) {
	g, want := readGolden(t, name)
	got, err := run(Options{Scale: g.Scale, Seed: g.Seed, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	have := marshalBench(t, got)
	if !bytes.Equal(have, want) {
		t.Fatalf("trajectory diverged from seed engine golden %s (parallel=%d):\ngolden:  %s\ncurrent: %s",
			name, parallel, want, have)
	}
}

// TestGoldenRegressionSeedEngine locks the fixed-seed regression rows
// to the seed engine, serially and through the worker pool.
func TestGoldenRegressionSeedEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	run := func(o Options) (*BenchFile, error) { return runTrajectory("regression", o, metrics.New()) }
	checkGolden(t, "regression_seed_engine.json", run, 1)
	checkGolden(t, "regression_seed_engine.json", run, 8)
}

// TestGoldenSweepSeedEngine locks the 48-row sharded grid — the
// trajectory EXPERIMENTS.md §18's speedup walkthrough measures — to the
// seed engine at the walkthrough's own scale and seed.
func TestGoldenSweepSeedEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("48-run experiment")
	}
	run := func(o Options) (*BenchFile, error) { return runTrajectory("sweep", o, metrics.New()) }
	checkGolden(t, "sweep_seed_engine.json", run, 1)
	checkGolden(t, "sweep_seed_engine.json", run, 8)
}

// TestGoldenStrategiesSeedEngine locks the per-strategy comparison —
// the rows CI's two-layer gates assert on — to the seed engine,
// serially and through the worker pool.
func TestGoldenStrategiesSeedEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	run := func(o Options) (*BenchFile, error) { return runTrajectory("strategies", o, metrics.New()) }
	checkGolden(t, "strategies_seed_engine.json", run, 1)
	checkGolden(t, "strategies_seed_engine.json", run, 8)
}

// TestStrategiesOneLeaderPerNode runs the strategies experiment afresh,
// at the CLI's defaults, and checks the two-layer claims on its rows.
// The election invariant: every two-layer row (standalone or composed
// into mccio) elects exactly one leader per node, and no other row
// elects any. The traffic claims on the node-shared workload: a
// two-layer read moves some but strictly fewer inter-node bytes than
// its flat counterpart (the leader ships each node's shared range
// across the fabric once and fans out locally), and the two-layer
// write keeps more shuffle bytes on-node than off (the intra-node
// funnel).
func TestStrategiesOneLeaderPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	got, err := runTrajectory("strategies", Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	twoLayer := 0
	for _, r := range got.Experiments {
		want := 0
		if strings.Contains(r.Key, "two-layer") {
			want = StrategiesNodes
			twoLayer++
		}
		if r.Leaders != want {
			t.Errorf("row %s elected %d leaders, want %d", r.Key, r.Leaders, want)
		}
	}
	if twoLayer != 4 {
		t.Fatalf("%d two-layer rows, want 4 (two-layer and mccio+two-layer, write and read)", twoLayer)
	}
	for layered, flat := range map[string]string{
		"strat=two-layer/read":       "strat=two-phase/read",
		"strat=mccio+two-layer/read": "strat=mccio/read",
	} {
		l, f := got.Row(layered), got.Row(flat)
		if l.ShuffleInter <= 0 || l.ShuffleInter >= f.ShuffleInter {
			t.Errorf("%s moved %d inter-node bytes, want some but fewer than %s's %d", layered, l.ShuffleInter, flat, f.ShuffleInter)
		}
	}
	if w := got.Row("strat=two-layer/write"); w.ShuffleIntra <= w.ShuffleInter {
		t.Errorf("two-layer write kept %d shuffle bytes on-node, %d off: the funnel should dominate", w.ShuffleIntra, w.ShuffleInter)
	}
}

// TestGoldenHostMetricsDoNotPerturb proves host-cost recording is an
// observer: a regression run with HostMetrics on must produce the same
// simulated columns as the golden, differing only in the two host_*
// fields.
func TestGoldenHostMetricsDoNotPerturb(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	g, want := readGolden(t, "regression_seed_engine.json")
	got, err := runTrajectory("regression", Options{Scale: g.Scale, Seed: g.Seed, HostMetrics: true}, metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Experiments {
		r := &got.Experiments[i]
		if r.HostNsOp <= 0 || r.HostAllocsOp <= 0 {
			t.Fatalf("row %s: host columns not recorded: ns=%d allocs=%d", r.Key, r.HostNsOp, r.HostAllocsOp)
		}
		r.HostNsOp, r.HostAllocsOp = 0, 0
	}
	if have := marshalBench(t, got); !bytes.Equal(have, want) {
		t.Fatalf("HostMetrics perturbed the simulated columns:\ngolden:  %s\ncurrent: %s", want, have)
	}
}
