package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/strategy"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The trajectory experiments are fixed-seed grids whose rows persist
// as a BenchFile: the simulation runs on virtual time with seeded
// randomness, so for a given (scale, seed) the rows are bit-identical
// on every host and at every o.Parallel — which is what lets a
// checked-in BenchFile act as a baseline or a golden.

// RegressionMems are the memory points of the fixed-seed regression
// bench: one scarce and one comfortable aggregation budget (bytes).
var RegressionMems = []int64{4 * cluster.MiB, 16 * cluster.MiB}

// regression is the small bench that gates CI: IOR interleaved at 24
// processes on 2 nodes x 12 cores, both strategies and both operations
// at each RegressionMems point — 8 rows in a few seconds.
func regression(o Options) grid {
	return grid{
		label:    "regression",
		base:     cell{nodes: 2},
		axes:     []axis{mems(RegressionMems...), ops(bothOps...), strats(baseline...)},
		workload: fixed(iorWorkload(24, o.Scale)),
		key:      func(c cell) string { return fmt.Sprintf("mem=%s/%s/%s", mb(c.mem), c.strat.label, c.op) },
		table:    trajectoryTable("Regression"),
	}
}

// SweepMems are the aggregation-memory points (bytes) of the sharded
// grid sweep: the scarce half of the paper's 2–128 MB axis, where the
// strategies actually separate.
var SweepMems = []int64{2 * cluster.MiB, 4 * cluster.MiB, 8 * cluster.MiB, 16 * cluster.MiB}

// SweepVariants is how many seed variants the grid sweep runs per
// (memory, strategy, op) cell. Each variant perturbs the platform —
// memory variance and storage jitter — through its own derived seed,
// so a cell's rows sample the paper's σ=50 distribution instead of one
// draw from it.
const SweepVariants = 3

// sweepGrid is the sharded parameter grid: SweepMems × both strategies
// × {write, read} × SweepVariants seed variants — 48 hermetic rows on
// the 24-process IOR interleaved workload. Row i's platform seed is
// sweep.Seed(o.Seed, i), so every row's randomness is fixed by (sweep
// seed, row index) alone: a worker never consumes another row's random
// draws.
func sweepGrid(o Options) grid {
	return grid{
		label:    "sweep",
		base:     cell{nodes: 2},
		axes:     []axis{mems(SweepMems...), strats(baseline...), ops(bothOps...), variants(SweepVariants)},
		workload: fixed(iorWorkload(24, o.Scale)),
		key: func(c cell) string {
			return fmt.Sprintf("mem=%s/%s/%s/v%d", mb(c.mem), c.strat.label, c.op, c.v)
		},
		seed:  func(row int) uint64 { return sweep.Seed(o.Seed, row) },
		table: trajectoryTable("Sharded sweep"),
	}
}

// trajectoryTable renders a trajectory for stdout under name.
func trajectoryTable(name string) func(*gridRun) *Table {
	return func(r *gridRun) *Table {
		b := r.benchFile()
		t := &Table{
			Title:   fmt.Sprintf("%s bench (scale %.3g, seed %d)", name, b.Scale, b.Seed),
			Headers: []string{"experiment", "MB/s", "rounds", "aggs", "io MB", "shuffle MB"},
		}
		for _, r := range b.Experiments {
			t.addf("%s %.1f %d %d %.1f %.1f", r.Key, r.BandwidthMBps, r.Rounds, r.Aggregators,
				float64(r.BytesIO)/1e6, float64(r.ShuffleIntra+r.ShuffleInter)/1e6)
		}
		return t
	}
}

// StrategiesNodes and StrategiesPerNode fix the strategies bench
// topology: 4 nodes × 4 ranks, the smallest machine where the two-layer
// claim is visible (several ranks share each node's NIC) and CI can
// assert leader count == node count.
const (
	StrategiesNodes   = 4
	StrategiesPerNode = 4
)

// nodeSharedWorkload builds the strategies bench's access pattern: the
// file is a round-robin sequence of tiles, node n owns tile set
// {t : t mod nodes == n}, and every rank on node n requests all of
// node n's tiles. Requests are shared within a node and disjoint
// across nodes — a replicated-input pattern (every process of a
// node-local ensemble member reads the same shard). This is the regime
// the two-layer exchange exists for: the flat two-phase shuffle ships
// each tile across the fabric once per requesting rank, the two-layer
// shuffle once per node.
func nodeSharedWorkload(nodes, perNode, tilesPerNode int, tileBytes int64) workload.Explicit {
	views := make([]datatype.List, nodes*perNode)
	for n := 0; n < nodes; n++ {
		var segs []datatype.Segment
		for t := 0; t < tilesPerNode; t++ {
			tile := int64(t*nodes + n)
			segs = append(segs, datatype.Segment{Off: tile * tileBytes, Len: tileBytes})
		}
		view := datatype.Normalize(segs)
		for c := 0; c < perNode; c++ {
			views[n*perNode+c] = view
		}
	}
	return workload.Explicit{
		Label: fmt.Sprintf("node-shared tiles p=%d (%dx%d) tiles=%d tile=%d",
			nodes*perNode, nodes, perNode, tilesPerNode, tileBytes),
		Views: views,
	}
}

// strategies is the per-strategy comparison: all four collective
// strategies (independent, two-phase, two-layer, mccio) plus mccio
// with the two-layer exchange composed in, write and read, on the
// node-shared workload (6 tiles per node of 256 KiB at Scale=1,
// floored so tiny smoke scales stay non-empty) at a fixed 16 MB
// nominal buffer. Rows carry the intra- vs inter-node shuffle split
// and the elected-leader count, which is what the CI gates assert on:
// the two-layer read rows must move strictly fewer inter-node bytes
// than two-phase (leaders ship each node-shared range once and fan out
// locally), the two-layer write rows more intra- than inter-node bytes
// (mates funnel over the memory bus, leaders ship the merged image),
// and the leader count must equal the node count.
func strategies(o Options) grid {
	tile := int64(float64(256<<10) * o.Scale)
	if tile < 16<<10 {
		tile = 16 << 10
	}
	mccTL := &strat{label: strategy.MCCIO + "+" + strategy.TwoLayer, name: strategy.MCCIO,
		tune: func(op *core.Options) { op.TwoLayer = true }}
	return grid{
		label: "strategies",
		base:  cell{nodes: StrategiesNodes, perNode: StrategiesPerNode, mem: 16 * cluster.MiB},
		axes: []axis{strats(named(strategy.Independent), twoPhase, named(strategy.TwoLayer), mccio, mccTL),
			ops(bothOps...)},
		workload: fixed(nodeSharedWorkload(StrategiesNodes, StrategiesPerNode, 6, tile)),
		key:      func(c cell) string { return fmt.Sprintf("strat=%s/%s", c.strat.label, c.op) },
		table:    strategiesTable,
	}
}

// strategiesTable renders a strategies run with the columns the
// experiment is about: the intra/inter shuffle split and the leader
// count, per strategy and operation.
func strategiesTable(r *gridRun) *Table {
	b := r.benchFile()
	t := &Table{
		Title: fmt.Sprintf("Strategy comparison: node-shared tiles, %d nodes x %d ranks (scale %.3g, seed %d)",
			StrategiesNodes, StrategiesPerNode, b.Scale, b.Seed),
		Headers: []string{"experiment", "MB/s", "rounds", "aggs", "leaders", "intra MB", "inter MB", "io MB"},
	}
	for _, r := range b.Experiments {
		t.addf("%s %.1f %d %d %d %.2f %.2f %.2f", r.Key, r.BandwidthMBps, r.Rounds, r.Aggregators, r.Leaders,
			float64(r.ShuffleIntra)/1e6, float64(r.ShuffleInter)/1e6, float64(r.BytesIO)/1e6)
	}
	t.Notes = append(t.Notes,
		"every rank requests its node's full tile set: shared within a node, disjoint across nodes",
		"two-layer reads ship each node's tile set across the fabric once (leader fans out locally);",
		"two-phase ships it once per requesting rank — the inter-node column is the claim")
	return t
}
