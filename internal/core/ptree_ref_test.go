package core

import (
	"fmt"
	"strings"
)

// refNode is a vertex of the reference partition tree: the pointer tree
// that remerging used to edit in place (leaf removal with parent
// contraction and spine stretching), kept as the oracle the mask-based
// removal is held to.
type refNode struct {
	Lo, Hi, DataBytes   int64
	parent, left, right *refNode
}

func (n *refNode) isLeaf() bool { return n.left == nil && n.right == nil }

// refClone copies the built tree below n into the reference form.
func refClone(n *TreeNode, parent *refNode) *refNode {
	c := &refNode{Lo: n.Lo, Hi: n.Hi, DataBytes: n.DataBytes, parent: parent}
	if !n.IsLeaf() {
		c.left, c.right = refClone(n.left, c), refClone(n.right, c)
	}
	return c
}

// refLeaves returns the current leaves below n in file order.
func refLeaves(n *refNode) []*refNode {
	if n.isLeaf() {
		return []*refNode{n}
	}
	return append(refLeaves(n.left), refLeaves(n.right)...)
}

// refRemoveLeaf removes leaf a from the tree rooted at *root and returns
// the leaf that took over a's region, and whether that was Fig 5a:
//
//   - If a's sibling b is a leaf (Fig 5a), the parent becomes a leaf
//     owned by b: the two regions merge into one domain.
//   - If b is internal (Fig 5b), a depth-first search inside b's
//     subtree finds the leaf adjacent to a (leftmost leaf when a was
//     the left sibling, rightmost when right); that leaf c absorbs a's
//     region, the parent vertex leaves the tree, and the extents along
//     c's spine stretch to cover the absorbed region.
func refRemoveLeaf(root **refNode, a *refNode) (*refNode, bool) {
	p := a.parent
	if !a.isLeaf() || p == nil {
		panic(fmt.Sprintf("reference: cannot remove %+v", a))
	}
	b := p.left
	aIsLeft := false
	if b == a {
		b = p.right
		aIsLeft = true
	}
	if b.isLeaf() {
		p.left, p.right = nil, nil
		p.DataBytes = a.DataBytes + b.DataBytes
		return p, true
	}
	gp := p.parent
	b.parent = gp
	switch {
	case gp == nil:
		*root = b
	case gp.left == p:
		gp.left = b
	default:
		gp.right = b
	}
	c := b
	for {
		if aIsLeft {
			c.Lo = a.Lo
		} else {
			c.Hi = a.Hi
		}
		c.DataBytes += a.DataBytes
		if c.isLeaf() {
			return c, false
		}
		if aIsLeft {
			c = c.left
		} else {
			c = c.right
		}
	}
}

// refDump renders the reference tree as DumpTree renders a Tree.
func refDump(root *refNode) string {
	var b strings.Builder
	var walk func(n *refNode, depth int)
	walk = func(n *refNode, depth int) {
		kind := "leaf"
		if !n.isLeaf() {
			kind = "node"
		}
		fmt.Fprintf(&b, "%s%s[%d,%d) data=%d\n", strings.Repeat("  ", depth), kind, n.Lo, n.Hi, n.DataBytes)
		if !n.isLeaf() {
			walk(n.left, depth+1)
			walk(n.right, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}
