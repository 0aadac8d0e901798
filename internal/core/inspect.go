package core

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/datatype"
)

// InspectResult is the full static plan MCCIO would compute for a set
// of rank views on a machine — everything but the data movement.
type InspectResult struct {
	Plans []GroupPlan // one per aggregation group, in group order
}

// Inspect runs MCCIO's planning pipeline (group division, workload
// partition, remerging, aggregator location) outside the simulator:
// the same group division and planGroup the live collective runs, fed
// from the machine instead of an allgather — one availability snapshot
// per node for both. views[r] is rank r's file view; ranks map to nodes
// block-wise on the machine.
func (mc MCCIO) Inspect(machine *cluster.Machine, views []datatype.List) (*InspectResult, error) {
	if err := mc.Opts.Validate(); err != nil {
		return nil, err
	}
	n := len(views)
	if n == 0 || n > machine.NumRanks() {
		return nil, fmt.Errorf("core: %d views for machine of %d ranks", n, machine.NumRanks())
	}
	bytesPer := make([]int64, n)
	var total int64
	for r, v := range views {
		bytesPer[r] = v.TotalBytes()
		total += bytesPer[r]
	}
	nodeOf := machine.NodeOfRank
	avail := make([]int64, machine.NumNodes())
	for node := range avail {
		avail[node] = machine.Node(node).Available()
	}
	rec := machine.Explain()
	groups := DivideGroupsMemAware(nodeOf, bytesPer, mc.Opts.msggroup(), avail, mc.Opts.Memmin)
	auditGroups(rec, "inspect", total, mc.Opts.msggroup(), groups)

	res := &InspectResult{Plans: make([]GroupPlan, 0, len(groups))}
	for gi, g := range groups {
		nodeOfRank := make([]int, 0, g.Last-g.First+1)
		for r := g.First; r <= g.Last; r++ {
			nodeOfRank = append(nodeOfRank, nodeOf(r))
		}
		gp := mc.Opts.planGroup(gi, g, views[g.First:g.Last+1], nodeOfRank, groupAvail(nodeOfRank, avail), rec)
		gp.election.Explain(rec, gi)
		res.Plans = append(res.Plans, gp)
	}
	return res, nil
}

// DumpTree renders the partition tree as remerging left it, as indented
// ASCII, leaves marked with their data volume.
func DumpTree(t *Tree) string {
	var b strings.Builder
	var walk func(n *TreeNode, depth int)
	walk = func(n *TreeNode, depth int) {
		if n == nil {
			return
		}
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), n.String())
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(t.Root(), 0)
	return b.String()
}

// Summary renders the inspection as human-readable text.
func (ir *InspectResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "aggregation groups: %d\n", len(ir.Plans))
	for gi, gp := range ir.Plans {
		g := gp.Group
		fmt.Fprintf(&b, "\ngroup %d: ranks [%d..%d] on %d node(s), %.2f MB requested\n",
			gi, g.First, g.Last, g.Nodes, float64(g.Bytes)/1e6)
		lo, hi := gp.Coverage.Extent()
		fmt.Fprintf(&b, "  coverage: %d run(s) over file [%d, %d), %.2f MB data\n",
			len(gp.Coverage), lo, hi, float64(gp.Coverage.TotalBytes())/1e6)
		if gp.Tree == nil {
			continue
		}
		fmt.Fprintf(&b, "  partition tree (%d leaves, %d remerges):\n", len(gp.Tree.Leaves()), gp.Remerges)
		for _, line := range strings.Split(strings.TrimRight(DumpTree(gp.Tree), "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
		fmt.Fprintf(&b, "  placements:\n")
		for _, pl := range gp.Placements {
			fmt.Fprintf(&b, "    domain [%d,%d) %.2f MB -> group-rank %d (node %d), buffer %.2f MB\n",
				pl.Leaf.Lo, pl.Leaf.Hi, float64(pl.Leaf.DataBytes)/1e6,
				pl.Agg, gp.NodeOfRank[pl.Agg], float64(pl.Buf)/1e6)
		}
		if len(gp.Leaders) > 0 {
			fmt.Fprintf(&b, "  node leaders (two-layer):\n")
			for _, l := range gp.Leaders {
				fmt.Fprintf(&b, "    node %d -> group-rank %d (Mem_avl %.2f MB, score %d, %d runner(s)-up)\n",
					l.Node, l.Rank, float64(l.Avail)/1e6, l.Score, len(l.RunnersUp))
			}
		}
	}
	return b.String()
}
