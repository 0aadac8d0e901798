// Package core implements Memory-Conscious Collective I/O (MCCIO), the
// paper's contribution. It enhances two-phase collective I/O with four
// components:
//
//   - Aggregation Group Division (§3.1): the I/O workload is divided
//     into disjoint subgroups aligned to physical-node boundaries and
//     sized by the optimal group message size Msg_group; all shuffle
//     traffic stays inside a subgroup.
//   - I/O Workload Partition (§3.2): within a group, the aggregate
//     file region is recursively bisected into a binary partition tree
//     whose leaves are file domains holding at most Msg_ind bytes of
//     requested data.
//   - Workload Portion Remerging (§3.2): a file domain that cannot be
//     hosted (no candidate node has Mem_min available) leaves the tree,
//     its region taken over by the neighbouring leaf (sibling-leaf
//     takeover, Fig 5a, or directional DFS into the sibling subtree,
//     Fig 5b) — collio.RemergeTree.Taker, the rule runtime failover
//     applies too.
//   - Aggregator Location (§3.3): each file domain's aggregator is
//     placed on the candidate host with maximum available memory,
//     subject to at most N_ah aggregators per host.
//
// The resulting plan runs on the same two-phase round engine as the
// baseline (internal/collio), which is exactly how the paper frames
// MCCIO: a new planner for the existing protocol.
package core

import (
	"fmt"

	"repro/internal/collio"
	"repro/internal/datatype"
	"repro/internal/explain"
)

// TreeNode is a vertex of the binary partition tree. Every vertex
// represents a non-overlapping portion [Lo, Hi) of the group's file
// region; leaves are file domains.
type TreeNode struct {
	Lo, Hi    int64
	DataBytes int64 // requested bytes covered inside [Lo, Hi)

	left, right *TreeNode
}

// IsLeaf reports whether the vertex is a file domain.
func (n *TreeNode) IsLeaf() bool { return n.left == nil && n.right == nil }

func (n *TreeNode) String() string {
	kind := "leaf"
	if !n.IsLeaf() {
		kind = "node"
	}
	return fmt.Sprintf("%s[%d,%d) data=%d", kind, n.Lo, n.Hi, n.DataBytes)
}

// Tree is the binary partition tree of one aggregation group's file
// region. Bisection builds it once; remerging never edits its shape but
// marks built leaves gone and grows each taker's extent, and the tree
// it stands for is the one the built tree induces on the leaves left.
type Tree struct {
	root     *TreeNode
	coverage datatype.List // the group's aggregate request coverage

	leaves []*TreeNode        // the built leaves, in file order
	gone   []bool             // per built leaf: remerged away; nil until the first remerge
	built  collio.RemergeTree // over the built leaves; set at the first remerge

	rec   *explain.Recorder // decision audit; nil disables
	group int               // aggregation-group index for audit events
}

// BuildTree recursively bisects the coverage's extent until every leaf
// holds at most msgind covered bytes, producing at most maxLeaves
// leaves. Bisection balances *data*, not offsets: each split point is
// the file offset at which half the portion's covered bytes lie to the
// left, so sparse and dense regions get equally loaded domains.
func BuildTree(coverage datatype.List, msgind int64, maxLeaves int) *Tree {
	return BuildTreeExplained(coverage, msgind, maxLeaves, nil, -1)
}

// BuildTreeExplained is BuildTree with a decision-audit recorder: every
// bisection is recorded (vertex extent, cut offset, covered bytes per
// half) under the given aggregation-group index, in the exact recursion
// order — left before right — so a reader can replay the events to
// reconstruct the tree. A nil recorder makes it identical to BuildTree.
func BuildTreeExplained(coverage datatype.List, msgind int64, maxLeaves int, rec *explain.Recorder, group int) *Tree {
	if msgind <= 0 {
		panic(fmt.Sprintf("core: msgind %d", msgind))
	}
	if maxLeaves < 1 {
		maxLeaves = 1
	}
	lo, hi := coverage.Extent()
	root := &TreeNode{Lo: lo, Hi: hi, DataBytes: coverage.TotalBytes()}
	t := &Tree{root: root, coverage: coverage, rec: rec, group: group}
	t.split(root, msgind, maxLeaves)
	t.leaves = root.appendLeaves(nil)
	return t
}

// appendLeaves appends the leaves below n to out, in file order.
func (n *TreeNode) appendLeaves(out []*TreeNode) []*TreeNode {
	if n.IsLeaf() {
		return append(out, n)
	}
	return n.right.appendLeaves(n.left.appendLeaves(out))
}

// split bisects n until its leaves satisfy the termination criterion,
// spending at most budget leaves.
func (t *Tree) split(n *TreeNode, msgind int64, budget int) {
	if n.DataBytes <= msgind || budget <= 1 {
		return
	}
	cut := t.halfDataOffset(n)
	if cut <= n.Lo || cut >= n.Hi {
		return // cannot bisect further (single byte of extent)
	}
	leftData := t.coverage.Clip(n.Lo, cut).TotalBytes()
	rightData := n.DataBytes - leftData
	if leftData == 0 || rightData == 0 {
		return // degenerate cut; keep as leaf
	}
	n.left = &TreeNode{Lo: n.Lo, Hi: cut, DataBytes: leftData}
	n.right = &TreeNode{Lo: cut, Hi: n.Hi, DataBytes: rightData}
	t.rec.Bisect(t.group, n.Lo, n.Hi, n.DataBytes, cut, leftData)
	lb := budget / 2
	rb := budget - lb
	t.split(n.left, msgind, lb)
	t.split(n.right, msgind, rb)
}

// halfDataOffset returns the offset splitting n's covered bytes in two.
func (t *Tree) halfDataOffset(n *TreeNode) int64 {
	cov := t.coverage.Clip(n.Lo, n.Hi)
	half := (n.DataBytes + 1) / 2
	var acc int64
	for _, s := range cov {
		if acc+s.Len >= half {
			cut := s.Off + (half - acc)
			// Snap to a segment edge when the cut lands at one; keeps
			// domains aligned to request boundaries where possible.
			if cut > s.End() {
				cut = s.End()
			}
			return cut
		}
		acc += s.Len
	}
	return n.Hi
}

// Root returns the root vertex of the tree as remerging left it.
func (t *Tree) Root() *TreeNode { return t.induced() }

// Leaves returns the current file domains in file order: the built
// leaves remerging has not taken out.
func (t *Tree) Leaves() []*TreeNode { return t.Root().appendLeaves(nil) }

// live reports whether built leaf i is still a file domain.
func (t *Tree) live(i int) bool { return t.gone == nil || !t.gone[i] }

// remove takes built leaf i out of the tree — the Workload Portion
// Remerging operation — and returns the built leaf that takes over its
// region by the one remerge rule (collio.RemergeTree.Taker), and whether
// that was Fig 5a. The taker keeps its vertex; its extent and data grow
// over leaf i's. It panics when leaf i is the group's last domain.
func (t *Tree) remove(i int) (taker int, fig5a bool) {
	if t.gone == nil {
		t.built, t.gone = t.remergeTree(), make([]bool, len(t.leaves))
	}
	t.gone[i] = true
	if taker, fig5a = t.built.Taker(i, t.gone); taker < 0 {
		panic("core: cannot remove the only domain of a group")
	}
	a, c := t.leaves[i], t.leaves[taker]
	c.Lo, c.Hi, c.DataBytes = min(c.Lo, a.Lo), max(c.Hi, a.Hi), c.DataBytes+a.DataBytes
	return taker, fig5a
}

// induced is the tree the built tree induces on the leaves remerging
// left — what removing each leaf and contracting its parent would have
// left: a vertex with one side left is replaced by that side, and every
// vertex spans its leaves' grown extents. Without remerges it is the
// built tree.
func (t *Tree) induced() *TreeNode {
	if t.gone == nil {
		return t.root
	}
	spare := make([]TreeNode, 0, len(t.leaves)) // fresh internal vertices; never regrows
	k := 0                                      // built leaves walked, in file order
	var walk func(n *TreeNode) *TreeNode
	walk = func(n *TreeNode) *TreeNode {
		if n.IsLeaf() {
			if k++; !t.live(k - 1) {
				return nil
			}
			return n
		}
		l, r := walk(n.left), walk(n.right)
		switch {
		case l == nil:
			return r
		case r == nil:
			return l
		}
		spare = append(spare, TreeNode{Lo: l.Lo, Hi: r.Hi, DataBytes: l.DataBytes + r.DataBytes, left: l, right: r})
		return &spare[len(spare)-1]
	}
	return walk(t.root)
}

// remergeTree is the remerge tree of the current file domains, its
// leaves numbered in file order.
func (t *Tree) remergeTree() collio.RemergeTree {
	n := len(t.leaves)
	for _, g := range t.gone {
		if g {
			n--
		}
	}
	rt := make(collio.RemergeTree, 2*n-1)
	leaf, next := 0, n
	var walk func(v *TreeNode) int
	walk = func(v *TreeNode) int {
		if v.IsLeaf() {
			leaf++
			return leaf - 1
		}
		l, r := walk(v.left), walk(v.right)
		rt[l], rt[r] = next, next
		next++
		return next - 1
	}
	rt[walk(t.induced())] = -1
	return rt
}
