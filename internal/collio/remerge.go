package collio

import "fmt"

// RemergeTree is the binary tree along which Workload Portion Remerging
// (the paper's Fig 5a/5b) hands a domain that leaves to a neighbour, in
// parent-array form. Vertices 0..n-1 are the leaves, Plan.Domains in
// file order; n..2n-2 are the internal vertices, each numbered after
// both its children, so the root is the last vertex and its parent is
// -1. Every subtree's leaves are consecutive domains. The tree never
// changes: removing a leaf and contracting its parent leaves exactly the
// subtree the tree induces on the surviving leaves, so which leaves are
// gone is all a remerge has to know (Taker).
type RemergeTree []int

// span is the leaf range [lo, hi) below a vertex and its child count.
type span struct{ lo, hi, kids int }

// spans folds every vertex into its parent, in vertex order, and returns
// each vertex's span — in buf when it is large enough — or the first way
// t fails to be a remerge tree over n leaves.
func (t RemergeTree) spans(n int, buf []span) ([]span, error) {
	if len(t) != max(2*n-1, 0) {
		return nil, fmt.Errorf("collio: remerge tree has %d vertices for %d domains", len(t), n)
	}
	s := buf[:0]
	if cap(s) < len(t) {
		s = make([]span, len(t))
	}
	s = s[:len(t)]
	clear(s)
	for v := range n {
		s[v] = span{lo: v, hi: v + 1}
	}
	for v, p := range t {
		switch {
		case v >= n && s[v].kids != 2:
			return nil, fmt.Errorf("collio: remerge tree vertex %d has %d children", v, s[v].kids)
		case v == len(t)-1 && p == -1:
			return s, nil
		case p <= v || p < n || p >= len(t):
			return nil, fmt.Errorf("collio: remerge tree vertex %d has parent %d", v, p)
		}
		switch c, q := s[v], &s[p]; {
		case q.kids == 0:
			q.lo, q.hi = c.lo, c.hi
		case c.hi == q.lo:
			q.lo = c.lo
		case c.lo == q.hi:
			q.hi = c.hi
		default:
			return nil, fmt.Errorf("collio: remerge tree vertex %d's children are not adjacent", p)
		}
		s[p].kids++
	}
	return s, nil
}

// Taker is the one remerge rule, shared by the planner and runtime
// failover: the leaf that takes over leaf f's region when f leaves the
// tree, where gone marks the leaves already out (f among them). Walk up
// from f to the first ancestor whose other subtree still holds a
// surviving leaf; the taker is that subtree's survivor nearest f in file
// order. fig5a reports that the subtree holds exactly one survivor — the
// sibling-leaf takeover of Fig 5a — and false means Fig 5b's directional
// descent into a sibling subtree. The taker is -1 when nothing survives.
func (t RemergeTree) Taker(f int, gone []bool) (taker int, fig5a bool) {
	s, err := t.spans(len(gone), nil)
	if err != nil {
		panic(err)
	}
	for v := f; t[v] >= 0; v = t[v] {
		p := t[v]
		// The other subtree is p's leaf range less v's, scanned from f's side.
		from, to, step := s[v].hi, s[p].hi, 1
		if s[v].lo > s[p].lo {
			from, to, step = s[v].lo-1, s[p].lo-1, -1
		}
		alive := 0
		for l := from; l != to; l += step {
			if !gone[l] {
				if alive == 0 {
					taker = l
				}
				alive++
			}
		}
		if alive > 0 {
			return taker, alive == 1
		}
	}
	return -1, false
}

// balancedTree is the even split's remerge tree over n domains: leaf
// ranges halve at an even offset down to the pairs (2k, 2k+1), so a
// domain's first failure goes to its pair partner, or to its left
// neighbour for a trailing odd one.
func balancedTree(n int) RemergeTree {
	return bisectTree(n, func(lo, hi int) int {
		if hi-lo == 2 {
			return lo + 1
		}
		return lo + 2*((hi-lo+3)/4)
	})
}

// bisectTree is the remerge tree over n leaves that cuts every leaf
// range [lo, hi) of two or more leaves at cut(lo, hi).
func bisectTree(n int, cut func(lo, hi int) int) RemergeTree {
	t := make(RemergeTree, max(2*n-1, 0))
	next := n
	var build func(lo, hi int) int
	build = func(lo, hi int) int {
		if hi-lo == 1 {
			return lo
		}
		mid := cut(lo, hi)
		l, r := build(lo, mid), build(mid, hi)
		t[l], t[r] = next, next
		next++
		return next - 1
	}
	if n > 0 {
		t[build(0, n)] = -1
	}
	return t
}
