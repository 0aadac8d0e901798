package core

import "fmt"

// Group is one aggregation group: a contiguous, node-aligned range of
// communicator ranks that shuffles only among itself.
type Group struct {
	First, Last int   // inclusive comm-rank range
	Bytes       int64 // total requested bytes of its members
	Nodes       int   // physical nodes spanned
}

// DivideGroups implements Aggregation Group Division (§3.1, Fig 4):
// walking processes in rank order (block placement makes that node
// order), nodes accumulate into a group until its members' requested
// data reaches msggroup; the boundary always falls on a node edge so
// processes from one physical node never act as I/O aggregators for
// two different groups.
//
// nodeOf must be non-decreasing over ranks (block placement);
// bytes[r] is rank r's requested data. msggroup <= 0 means one group.
func DivideGroups(nodeOf func(rank int) int, bytes []int64, msggroup int64) []Group {
	n := len(bytes)
	if n == 0 {
		return nil
	}
	if msggroup <= 0 {
		g := Group{First: 0, Last: n - 1}
		for _, b := range bytes {
			g.Bytes += b
		}
		g.Nodes = nodeOf(n-1) - nodeOf(0) + 1
		return []Group{g}
	}
	var out []Group
	cur := Group{First: 0}
	prevNode := nodeOf(0)
	for r := 0; r < n; r++ {
		node := nodeOf(r)
		if node < prevNode {
			panic(fmt.Sprintf("core: nodeOf not monotone at rank %d", r))
		}
		// Close the running group at a node edge once it is full.
		if node != prevNode && cur.Bytes >= msggroup {
			cur.Last = r - 1
			cur.Nodes = prevNode - nodeOf(cur.First) + 1
			out = append(out, cur)
			cur = Group{First: r}
		}
		cur.Bytes += bytes[r]
		prevNode = node
	}
	cur.Last = n - 1
	cur.Nodes = prevNode - nodeOf(cur.First) + 1
	return append(out, cur)
}

// DivideGroupsMemAware extends DivideGroups with the memory
// consciousness the paper's runtime aggregator determination implies.
// After the byte-guided division, groups are rebalanced so that every
// group (a) contains at least one node with minAvail bytes available —
// a viable aggregator host — and (b) is not starved of aggregation
// memory relative to its data: a group whose data-to-memory ratio
// exceeds twice the machine-wide ratio is merged with its
// better-provisioned neighbour. Without this, an unlucky run of
// memory-poor nodes becomes a group whose single aggregator grinds
// through hundreds of rounds while the rest of the machine idles.
// nodeAvail is indexed by node.
func DivideGroupsMemAware(nodeOf func(rank int) int, bytes []int64, msggroup int64,
	nodeAvail []int64, minAvail int64) []Group {
	groups := DivideGroups(nodeOf, bytes, msggroup)
	if len(groups) <= 1 {
		return groups
	}

	// Per-group aggregation memory and machine-wide ratio.
	availOf := func(g Group) int64 {
		var sum int64
		for node := nodeOf(g.First); node <= nodeOf(g.Last); node++ {
			sum += nodeAvail[node]
		}
		return sum
	}
	maxAvailOf := func(g Group) int64 {
		var max int64
		for node := nodeOf(g.First); node <= nodeOf(g.Last); node++ {
			if a := nodeAvail[node]; a > max {
				max = a
			}
		}
		return max
	}
	var totalBytes, totalAvail int64
	for _, g := range groups {
		totalBytes += g.Bytes
		totalAvail += availOf(g)
	}
	if totalAvail <= 0 {
		totalAvail = 1
	}
	globalRatio := float64(totalBytes) / float64(totalAvail)

	starved := func(g Group) bool {
		if maxAvailOf(g) < minAvail {
			return true
		}
		a := availOf(g)
		if a <= 0 {
			return g.Bytes > 0
		}
		return float64(g.Bytes)/float64(a) > 2*globalRatio
	}
	merge := func(i, j int) { // j = i+1
		groups[i].Last = groups[j].Last
		groups[i].Bytes += groups[j].Bytes
		groups[i].Nodes += groups[j].Nodes
		groups = append(groups[:j], groups[j+1:]...)
	}
	for pass := 0; pass < len(bytes); pass++ {
		changed := false
		for i := 0; i < len(groups) && len(groups) > 1; i++ {
			if !starved(groups[i]) {
				continue
			}
			// Merge toward the neighbour with more spare memory.
			switch {
			case i == 0:
				merge(0, 1)
			case i == len(groups)-1:
				merge(i-1, i)
			case availOf(groups[i+1]) > availOf(groups[i-1]):
				merge(i, i+1)
			default:
				merge(i-1, i)
			}
			changed = true
			break
		}
		if !changed {
			break
		}
	}
	return groups
}

// ColorOf returns each rank's group index for a comm split.
func ColorOf(groups []Group, nranks int) []int {
	colors := make([]int, nranks)
	for gi, g := range groups {
		for r := g.First; r <= g.Last; r++ {
			colors[r] = gi
		}
	}
	return colors
}
