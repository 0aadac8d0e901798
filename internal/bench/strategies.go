package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/metrics"
	"repro/internal/strategy"
	"repro/internal/workload"
)

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

// strategiesWorkload scales the node-shared pattern: 6 tiles per node
// of 256 KiB (at Scale=1), floored so tiny smoke scales stay non-empty.
func strategiesWorkload(scale float64) workload.Explicit {
	tile := int64(float64(256<<10) * scale)
	if tile < 16<<10 {
		tile = 16 << 10
	}
	return nodeSharedWorkload(StrategiesNodes, StrategiesPerNode, 6, tile)
}

// RunStrategies runs the per-strategy comparison: all four collective
// strategies (independent, two-phase, two-layer, mccio) plus the
// composed mccio+two-layer variant, write and read, on the node-shared
// workload at a fixed 16 MB nominal buffer on a 4-node × 4-rank
// machine. Rows are keyed "strat=<name>/<op>" and carry the intra- vs
// inter-node shuffle split and the elected-leader count, which is what
// the CI gates assert on: the two-layer read rows must move strictly
// fewer inter-node bytes than two-phase (leaders ship each node-shared
// range once and fan out locally), the two-layer write rows more
// intra- than inter-node bytes (mates funnel over the memory bus,
// leaders ship the merged image), and the leader count must equal the
// node count.
//
// Like the regression bench this is a pure function of (scale, seed):
// the trajectory is byte-identical on every host and at every
// o.Parallel, so a checked-in BenchFile is a golden.
func RunStrategies(o Options, reg *metrics.Registry) (*BenchFile, error) {
	o = o.withDefaults()
	out := &BenchFile{Schema: BenchSchemaVersion, Scale: o.Scale, Seed: o.Seed}
	rows := strategiesRows(o)
	var regs []*metrics.Registry
	if reg != nil {
		regs = make([]*metrics.Registry, len(rows))
		for i := range regs {
			regs[i] = metrics.New()
			rows[i].spec.Metrics = regs[i]
		}
	}
	results, hosts, err := runSpecs(o, "strategies", rows)
	if err != nil {
		return nil, fmt.Errorf("bench: strategies: %w", err)
	}
	for i, res := range results {
		row := RowFromResult(rows[i].key, res)
		if hosts != nil {
			row.HostNsOp = hosts[i].WallNs
			row.HostAllocsOp = hosts[i].Allocs
		}
		out.Experiments = append(out.Experiments, row)
	}
	if reg != nil {
		snaps := make([]metrics.Snapshot, len(regs))
		for i, r := range regs {
			snaps[i] = r.Snapshot()
		}
		merged := metrics.MergeSnapshots(snaps...)
		out.Metrics = &merged
		reg.Absorb(merged)
	}
	return out, nil
}

// strategiesRows is the strategies bench's grid at o's scale and seed.
func strategiesRows(o Options) []specRow {
	const mem = 16 * cluster.MiB
	wl := strategiesWorkload(o.Scale)
	fcfg := TestbedFS(o.Seed)
	mcfg := TestbedMachine(StrategiesNodes, mem, SigmaBytes, o.Seed)
	mcfg.CoresPerNode = StrategiesPerNode
	mccOpts := MCCIOOptions(mcfg, fcfg, wl.TotalBytes(), mem)
	mccTL := mccOpts
	mccTL.TwoLayer = true

	var rows []specRow
	for _, s := range []iolib.Collective{
		collective(strategy.Independent, mccOpts, mem),
		collective(strategy.TwoPhase, mccOpts, mem),
		collective(strategy.TwoLayer, mccOpts, mem),
		collective(strategy.MCCIO, mccOpts, mem),
		collective(strategy.MCCIO, mccTL, mem),
	} {
		name := s.Name()
		if mc, ok := s.(core.MCCIO); ok && mc.Opts.TwoLayer {
			name += "+" + strategy.TwoLayer
		}
		for _, op := range []string{"write", "read"} {
			rows = append(rows, specRow{
				key:  fmt.Sprintf("strat=%s/%s", name, op),
				spec: Spec{Strategy: s, Op: op, Machine: mcfg, FS: fcfg, Workload: wl},
			})
		}
	}
	return rows
}

// StrategiesTable renders a strategies trajectory with the columns the
// experiment is about: the intra/inter shuffle split and the leader
// count, per strategy and operation.
func StrategiesTable(b *BenchFile) *Table {
	t := &Table{
		Title: fmt.Sprintf("Strategy comparison: node-shared tiles, %d nodes x %d ranks (scale %.3g, seed %d)",
			StrategiesNodes, StrategiesPerNode, b.Scale, b.Seed),
		Headers: []string{"experiment", "MB/s", "rounds", "aggs", "leaders", "intra MB", "inter MB", "io MB"},
	}
	for _, r := range b.Experiments {
		t.AddRow(r.Key,
			fmt.Sprintf("%.1f", r.BandwidthMBps),
			fmt.Sprintf("%d", r.Rounds),
			fmt.Sprintf("%d", r.Aggregators),
			fmt.Sprintf("%d", r.Leaders),
			fmt.Sprintf("%.2f", float64(r.ShuffleIntra)/1e6),
			fmt.Sprintf("%.2f", float64(r.ShuffleInter)/1e6),
			fmt.Sprintf("%.2f", float64(r.BytesIO)/1e6))
	}
	t.Notes = append(t.Notes,
		"every rank requests its node's full tile set: shared within a node, disjoint across nodes",
		"two-layer reads ship each node's tile set across the fabric once (leader fans out locally);",
		"two-phase ships it once per requesting rank — the inter-node column is the claim")
	return t
}
