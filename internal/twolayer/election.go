package twolayer

import "sort"

// Candidate is one rank's standing in its node's leader election: the
// quantities the scoring rule compared, kept for the decision audit.
type Candidate struct {
	Rank  int   // comm rank
	Node  int   // physical node hosting it
	Avail int64 // node's available aggregation memory (Mem_avl)
	Span  int64 // rank's file-extent span (Hi - Lo; proxy for its load)
	Score int64 // Avail - Span; highest wins, ties to the lowest rank
}

// Leader is one node's election outcome.
type Leader struct {
	Node      int
	Rank      int
	Score     int64
	Avail     int64
	RunnersUp []Candidate // losing mates in election order, best first
}

// Election is the full outcome across the communicator's nodes.
type Election struct {
	// Leaders holds one winner per node, in node first-appearance
	// (lowest-rank) order.
	Leaders []Leader
	// LeaderOf maps every comm rank to its node's leader
	// (collio.Plan.LeaderOf).
	LeaderOf []int
	// Succ is each rank's node-local succession line — the node's comm
	// ranks in election order, best score first — used by runtime leader
	// failover. Ranks of one node share the same backing slice
	// (collio.Plan.LeaderSucc).
	Succ [][]int
	// MultiRank reports whether any node hosts two or more ranks. When
	// false the two-layer exchange is pure overhead and the plan runs
	// the flat engine path, degenerating to the two-phase trajectory.
	MultiRank bool
}

// Elect runs the memory-aware node-leader election: every rank scores
// Avail - Span on its node and the highest score wins (ties to the
// lowest rank), so the funnel endpoint lands on the mate with the most
// memory headroom relative to the data it already stages. A pure
// function of allgathered metadata: the live strategy runs it once per
// collective call and shares the outcome with every rank (mpi.Shared).
func Elect(nodeOf []int, avail, span []int64) *Election {
	n := len(nodeOf)
	el := &Election{LeaderOf: make([]int, n), Succ: make([][]int, n)}
	byNode := make(map[int][]Candidate)
	var order []int // nodes in first-appearance order
	for r := 0; r < n; r++ {
		node := nodeOf[r]
		if _, ok := byNode[node]; !ok {
			order = append(order, node)
		}
		byNode[node] = append(byNode[node], Candidate{
			Rank: r, Node: node, Avail: avail[r], Span: span[r], Score: avail[r] - span[r],
		})
	}
	for _, node := range order {
		cands := byNode[node]
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].Score != cands[j].Score {
				return cands[i].Score > cands[j].Score
			}
			return cands[i].Rank < cands[j].Rank
		})
		if len(cands) > 1 {
			el.MultiRank = true
		}
		succ := make([]int, len(cands))
		for i, cd := range cands {
			succ[i] = cd.Rank
		}
		win := cands[0]
		el.Leaders = append(el.Leaders, Leader{
			Node: node, Rank: win.Rank, Score: win.Score, Avail: win.Avail,
			RunnersUp: cands[1:],
		})
		for _, cd := range cands {
			el.LeaderOf[cd.Rank] = win.Rank
			el.Succ[cd.Rank] = succ
		}
	}
	return el
}
