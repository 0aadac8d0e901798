package core

import (
	"testing"

	"repro/internal/collio"
	"repro/internal/datatype"
)

func seg(off, ln int64) datatype.Segment { return datatype.Segment{Off: off, Len: ln} }

// TestPlaceFallbackRetryOncePerDomain drives the candidates() fallback:
// when every data-owning host is saturated at Nah, placement retries
// past them onto any host with capacity — exactly once per fallen-back
// domain, even when the whole group ends up overflowing Nah.
func TestPlaceFallbackRetryOncePerDomain(t *testing.T) {
	// Four ranks on two nodes; all data lives on node 0's ranks, so
	// node 0 is the only data-owning candidate host.
	memberSegs := []datatype.List{
		{seg(0, 100)}, {seg(100, 200)}, nil, nil,
	}
	nodeOfRank := []int{0, 0, 1, 1}
	coverage := datatype.Normalize(datatype.List{seg(0, 100), seg(100, 200)})
	nodeAvail := map[int]int64{0: 1 << 20, 1: 1 << 20}

	tree := BuildTree(coverage, 100, 2)
	if n := len(tree.Leaves()); n != 2 {
		t.Fatalf("leaves = %d, want 2", n)
	}
	p := newPlacer(tree, memberSegs, nodeOfRank, nodeAvail, Options{Nah: 1, Msgind: 100}, nil, -1)
	placements := p.Place()
	if len(placements) != 2 {
		t.Fatalf("placements = %d, want 2", len(placements))
	}
	if p.retries != 1 {
		t.Errorf("retries = %d, want 1 (second domain fell back once)", p.retries)
	}
	if p.remerges != 0 {
		t.Errorf("remerges = %d, want 0 (fallback is not a remerge)", p.remerges)
	}
	if node := nodeOfRank[placements[1].Agg]; node != 1 {
		t.Errorf("fallen-back domain placed on node %d, want the non-owning node 1", node)
	}

	// Three domains on the same saturated pair: two fall back, and the
	// last one overflows Nah — still exactly one retry per domain.
	tree3 := BuildTree(coverage, 1, 3)
	if n := len(tree3.Leaves()); n != 3 {
		t.Fatalf("leaves = %d, want 3", n)
	}
	p3 := newPlacer(tree3, memberSegs, nodeOfRank, nodeAvail, Options{Nah: 1, Msgind: 1}, nil, -1)
	placements = p3.Place()
	if len(placements) != 3 {
		t.Fatalf("placements = %d, want 3", len(placements))
	}
	if p3.retries != 2 {
		t.Errorf("retries = %d, want 2 (one per fallen-back domain)", p3.retries)
	}
}

// TestPlaceSingleLeafBelowMemminNoPanic: a single-leaf tree whose only
// candidate host cannot offer Memmin must place anyway (floored at
// BufFloor) — with and without DisableRemerge — never panic or remerge:
// there is no sibling to merge into.
func TestPlaceSingleLeafBelowMemminNoPanic(t *testing.T) {
	for _, disable := range []bool{false, true} {
		memberSegs := []datatype.List{{seg(0, 1000)}}
		coverage := datatype.Normalize(datatype.List{seg(0, 1000)})
		tree := BuildTree(coverage, 1<<20, 1)
		if n := len(tree.Leaves()); n != 1 {
			t.Fatalf("leaves = %d, want 1", n)
		}
		p := newPlacer(tree, memberSegs, []int{0}, map[int]int64{0: 100},
			Options{Nah: 1, Msgind: 1 << 20, Memmin: 1 << 20, DisableRemerge: disable}, nil, -1)
		placements := p.Place()
		if len(placements) != 1 {
			t.Fatalf("DisableRemerge=%v: placements = %d, want 1", disable, len(placements))
		}
		if placements[0].Buf != collio.BufFloor {
			t.Errorf("DisableRemerge=%v: buf = %d, want floor %d", disable, placements[0].Buf, collio.BufFloor)
		}
		if p.remerges != 0 {
			t.Errorf("DisableRemerge=%v: remerges = %d, want 0", disable, p.remerges)
		}
	}
}

// TestPlaceDisableRemergeAllBelowMemmin: with remerging disabled and
// every host below Memmin, placement must still cover every leaf (at
// BufFloor) with zero remerges, instead of collapsing the tree.
func TestPlaceDisableRemergeAllBelowMemmin(t *testing.T) {
	memberSegs := []datatype.List{
		{seg(0, 400)}, {seg(400, 400)}, {seg(800, 400)}, {seg(1200, 400)},
	}
	nodeOfRank := []int{0, 0, 1, 1}
	coverage := datatype.Normalize(datatype.List{seg(0, 1600)})
	tree := BuildTree(coverage, 400, 4)
	nLeaves := len(tree.Leaves())
	if nLeaves < 2 {
		t.Fatalf("leaves = %d, want a multi-leaf tree", nLeaves)
	}
	p := newPlacer(tree, memberSegs, nodeOfRank, map[int]int64{0: 64, 1: 64},
		Options{Nah: 2, Msgind: 400, Memmin: 1 << 20, DisableRemerge: true}, nil, -1)
	placements := p.Place()
	if len(placements) != nLeaves {
		t.Fatalf("placements = %d, want %d (every leaf served)", len(placements), nLeaves)
	}
	if p.remerges != 0 {
		t.Errorf("remerges = %d, want 0 with DisableRemerge", p.remerges)
	}
	if len(tree.Leaves()) != nLeaves {
		t.Errorf("tree mutated: %d leaves, started with %d", len(tree.Leaves()), nLeaves)
	}
	for i, pl := range placements {
		if pl.Buf != collio.BufFloor {
			t.Errorf("placement %d buf = %d, want floor %d", i, pl.Buf, collio.BufFloor)
		}
	}
}
