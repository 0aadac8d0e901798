package core

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestDivideGroupsRespectsNodeBoundaries(t *testing.T) {
	// 4 nodes × 3 ranks, 10 bytes each, msggroup 50: groups close at
	// the first node edge after accumulating >= 50 bytes.
	nodeOf := func(r int) int { return r / 3 }
	bytes := make([]int64, 12)
	for i := range bytes {
		bytes[i] = 10
	}
	groups := DivideGroups(nodeOf, bytes, 50)
	if len(groups) != 2 {
		t.Fatalf("groups %+v, want 2", groups)
	}
	// First group: nodes 0,1 (60 bytes >= 50 at node-2 edge).
	if groups[0].First != 0 || groups[0].Last != 5 || groups[0].Bytes != 60 || groups[0].Nodes != 2 {
		t.Fatalf("group 0: %+v", groups[0])
	}
	if groups[1].First != 6 || groups[1].Last != 11 {
		t.Fatalf("group 1: %+v", groups[1])
	}
}

func TestDivideGroupsSingleWhenMsggroupZero(t *testing.T) {
	nodeOf := func(r int) int { return r / 2 }
	groups := DivideGroups(nodeOf, []int64{1, 2, 3, 4}, 0)
	if len(groups) != 1 || groups[0].Bytes != 10 || groups[0].Nodes != 2 {
		t.Fatalf("groups %+v", groups)
	}
}

func TestDivideGroupsTinyMsggroupOnePerNode(t *testing.T) {
	nodeOf := func(r int) int { return r / 2 }
	bytes := []int64{5, 5, 5, 5, 5, 5}
	groups := DivideGroups(nodeOf, bytes, 1)
	if len(groups) != 3 {
		t.Fatalf("groups %+v, want one per node", groups)
	}
	for i, g := range groups {
		if g.Nodes != 1 || g.First != i*2 || g.Last != i*2+1 {
			t.Fatalf("group %d: %+v", i, g)
		}
	}
}

func TestDivideGroupsProperty(t *testing.T) {
	f := func(seed uint64, msgRaw uint16) bool {
		r := stats.NewRNG(seed)
		nRanks := 1 + r.Intn(64)
		cores := 1 + r.Intn(8)
		nodeOf := func(rank int) int { return rank / cores }
		bytes := make([]int64, nRanks)
		var total int64
		for i := range bytes {
			bytes[i] = r.Int63n(1000)
			total += bytes[i]
		}
		groups := DivideGroups(nodeOf, bytes, int64(msgRaw))
		// Partition: contiguous, covering, node-aligned, bytes add up.
		next := 0
		var sum int64
		for gi, g := range groups {
			if g.First != next || g.Last < g.First {
				return false
			}
			next = g.Last + 1
			sum += g.Bytes
			// Node alignment: a group never ends mid-node.
			if g.Last+1 < nRanks && nodeOf(g.Last) == nodeOf(g.Last+1) {
				return false
			}
			if gi > 0 && nodeOf(g.First) == nodeOf(g.First-1) {
				return false
			}
		}
		if next != nRanks || sum != total {
			return false
		}
		colors := ColorOf(groups, nRanks)
		for r0 := 1; r0 < nRanks; r0++ {
			if colors[r0] < colors[r0-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignableAggregators(t *testing.T) {
	nodeOfRank := []int{0, 0, 0, 1, 1, 2}
	// Memmin 0: memory never limits, only Nah and the process count do.
	avail := map[int]int64{0: 1, 1: 1, 2: 1}
	if got := MemoryAssignableAggregators(nodeOfRank, avail, 1, 0); got != 3 {
		t.Fatalf("nah=1: %d, want 3", got)
	}
	if got := MemoryAssignableAggregators(nodeOfRank, avail, 2, 0); got != 5 {
		t.Fatalf("nah=2: %d, want 5", got)
	}
	if got := MemoryAssignableAggregators(nodeOfRank, avail, 10, 0); got != 6 {
		t.Fatalf("nah=10: %d, want 6 (capped by processes)", got)
	}
	// Memmin 4 with 9 / 4 / 0 bytes available: 2 + 1 + 0 slots.
	if got := MemoryAssignableAggregators(nodeOfRank, map[int]int64{0: 9, 1: 4, 2: 0}, 10, 4); got != 3 {
		t.Fatalf("memory-limited: %d, want 3", got)
	}
}
