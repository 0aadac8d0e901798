package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datatype"
	"repro/internal/stats"
)

func contiguous(lo, hi int64) datatype.List {
	return datatype.List{{Off: lo, Len: hi - lo}}
}

func randomCoverage(r *stats.RNG, n int) datatype.List {
	raw := make([]datatype.Segment, n)
	for i := range raw {
		raw[i] = datatype.Segment{Off: r.Int63n(100000), Len: 1 + r.Int63n(4000)}
	}
	return datatype.Normalize(raw)
}

func TestBuildTreeTerminatesAtMsgind(t *testing.T) {
	cov := contiguous(0, 1<<20)
	tr := BuildTree(cov, 100<<10, 64)
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves := tr.Leaves()
	if len(leaves) < 2 {
		t.Fatalf("no splitting happened: %d leaves", len(leaves))
	}
	for _, l := range leaves {
		if l.DataBytes > 100<<10 {
			t.Fatalf("leaf %v exceeds msgind", l)
		}
	}
}

func TestBuildTreeRespectsMaxLeaves(t *testing.T) {
	cov := contiguous(0, 1<<20)
	tr := BuildTree(cov, 1, 7) // msgind=1 would want 2^20 leaves
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Leaves()); n > 7 {
		t.Fatalf("%d leaves, budget 7", n)
	}
}

func TestBuildTreeSingleLeafWhenSmall(t *testing.T) {
	cov := contiguous(10, 20)
	tr := BuildTree(cov, 100, 64)
	if n := len(tr.Leaves()); n != 1 {
		t.Fatalf("%d leaves, want 1", n)
	}
	if tr.Root().Lo != 10 || tr.Root().Hi != 20 || tr.Root().DataBytes != 10 {
		t.Fatalf("root %v", tr.Root())
	}
}

func TestBuildTreeBalancesDataNotOffsets(t *testing.T) {
	// 1 KiB of data at the front, 1 KiB at the very end of a 1 MiB
	// span: the first split must put one segment on each side.
	cov := datatype.List{{Off: 0, Len: 1 << 10}, {Off: 1<<20 - 1<<10, Len: 1 << 10}}
	tr := BuildTree(cov, 1<<10, 8)
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves := tr.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("%d leaves, want 2", len(leaves))
	}
	if leaves[0].DataBytes != 1<<10 || leaves[1].DataBytes != 1<<10 {
		t.Fatalf("unbalanced: %v %v", leaves[0], leaves[1])
	}
}

func TestBuildTreePropertyInvariants(t *testing.T) {
	f := func(seed uint64, msgRaw uint16, budgetRaw uint8) bool {
		r := stats.NewRNG(seed)
		cov := randomCoverage(r, 1+r.Intn(30))
		msgind := int64(msgRaw)%20000 + 1
		budget := int(budgetRaw)%40 + 1
		tr := BuildTree(cov, msgind, budget)
		if tr.checkInvariants() != nil {
			return false
		}
		if len(tr.Leaves()) > budget {
			return false
		}
		// Budgets halve down the tree (lb = budget/2, rb = budget-lb), so
		// one subtree can run dry while the tree as a whole has leaves to
		// spare. A leaf over msgind is legitimate exactly when its own
		// subtree budget was 1 or its cut was degenerate.
		var ok func(n *TreeNode, budget int) bool
		ok = func(n *TreeNode, budget int) bool {
			if !n.IsLeaf() {
				lb := budget / 2
				return budget > 1 && ok(n.left, lb) && ok(n.right, budget-lb)
			}
			if n.DataBytes <= msgind || budget <= 1 {
				return true
			}
			cut := tr.halfDataOffset(n)
			if cut <= n.Lo || cut >= n.Hi {
				return true
			}
			left := cov.Clip(n.Lo, cut).TotalBytes()
			return left == 0 || left == n.DataBytes
		}
		return ok(tr.Root(), budget)
	}
	// A fixed source, so a failure reproduces.
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// liveIndex returns the built-leaf index of the k-th current leaf.
func liveIndex(tr *Tree, k int) int {
	for i := range tr.leaves {
		if tr.live(i) {
			if k == 0 {
				return i
			}
			k--
		}
	}
	panic("liveIndex: out of range")
}

func TestRemoveLeafSiblingLeafCase(t *testing.T) {
	// Fig 5a: removing a leaf whose sibling is a leaf hands its region to
	// that sibling.
	cov := contiguous(0, 1000)
	tr := BuildTree(cov, 250, 4) // 4 leaves of 250
	if n := len(tr.Leaves()); n != 4 {
		t.Fatalf("setup: %d leaves", n)
	}
	ti, fig5a := tr.remove(0)
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.leaves[ti]; ti != 1 || !fig5a || got.Lo != 0 || got.Hi != 500 || got.DataBytes != 500 {
		t.Fatalf("taker %d (%v, fig5a=%v), want leaf 1 grown to [0,500) data 500 by Fig 5a", ti, got, fig5a)
	}
	if n := len(tr.Leaves()); n != 3 {
		t.Fatalf("%d leaves after removal", n)
	}
}

func TestRemoveLeafDFSCase(t *testing.T) {
	// Fig 5b: once leaf 1 is gone, leaf 0's sibling is the internal right
	// subtree; its adjacent (leftmost) leaf takes over leaf 0's region.
	cov := contiguous(0, 800)
	tr := BuildTree(cov, 200, 4) // leaves: [0,200) [200,400) [400,600) [600,800)
	if ti, fig5a := tr.remove(1); ti != 0 || !fig5a {
		t.Fatalf("setup: leaf 1 went to %d (fig5a=%v), want its sibling 0", ti, fig5a)
	}
	ti, fig5a := tr.remove(0)
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	c := tr.leaves[ti]
	if fig5a || c.Lo != 0 || c.Hi != 600 || c.DataBytes != 600 {
		t.Fatalf("takeover leaf %v (fig5a=%v), want [0,600) data 600 by Fig 5b", c, fig5a)
	}
	got := tr.Leaves()
	if len(got) != 2 || got[0] != c || got[1].Lo != 600 {
		t.Fatalf("leaves after DFS takeover: %v", got)
	}
}

func TestRemoveLeafRightDirection(t *testing.T) {
	cov := contiguous(0, 800)
	tr := BuildTree(cov, 200, 4)
	tr.remove(2) // [400,600)+[600,800) merge into leaf 3
	ti, _ := tr.remove(3)
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Rightmost leaf of the left subtree is [200,400): stretches to 800.
	if c := tr.leaves[ti]; c.Lo != 200 || c.Hi != 800 {
		t.Fatalf("takeover leaf %v, want [200,800)", c)
	}
}

func TestRemoveLeafPanicsOnLastDomain(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	tr := BuildTree(contiguous(0, 100), 1000, 4) // single leaf = root
	mustPanic("removing the only leaf", func() { tr.remove(0) })
	tr2 := BuildTree(contiguous(0, 1000), 250, 4)
	tr2.remove(0)
	tr2.remove(1)
	tr2.remove(2)
	mustPanic("removing the last leaf left", func() { tr2.remove(3) })
}

func TestRemoveLeafPropertyRandomSequences(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		cov := randomCoverage(r, 1+r.Intn(20))
		tr := BuildTree(cov, 1+cov.TotalBytes()/16, 32)
		total := tr.Root().DataBytes
		for live := len(tr.Leaves()); live > 1; live-- {
			tr.remove(liveIndex(tr, r.Intn(live)))
			if tr.checkInvariants() != nil {
				return false
			}
			if tr.Root().DataBytes != total {
				return false // data lost or invented
			}
		}
		root := tr.Root()
		lo, hi := cov.Extent()
		return root.Lo == lo && root.Hi == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveMatchesPointerSurgery holds the mask-based removal to the
// pointer surgery it replaced (refRemoveLeaf) over random layouts and
// random removal sequences: at every step the same taker, the same
// Fig 5a/5b variant, the same leaf extents and data, and the same
// DumpTree text.
func TestRemoveMatchesPointerSurgery(t *testing.T) {
	steps := 0
	for c := uint64(0); c < 400; c++ {
		r := stats.NewRNG(c)
		cov := randomCoverage(r, 1+r.Intn(30))
		tr := BuildTree(cov, 1+cov.TotalBytes()/int64(1+r.Intn(24)), 1+r.Intn(40))
		ref := refClone(tr.root, nil)
		for live := len(tr.leaves); live > 1 && r.Intn(8) > 0; live-- {
			k := r.Intn(live)
			ti, fig5a := tr.remove(liveIndex(tr, k))
			rt, rfig5a := refRemoveLeaf(&ref, refLeaves(ref)[k])
			got := tr.leaves[ti]
			if fig5a != rfig5a || got.Lo != rt.Lo || got.Hi != rt.Hi || got.DataBytes != rt.DataBytes {
				t.Fatalf("case %d: removing leaf %d: taker %v (fig5a=%v), reference %+v (fig5a=%v)", c, k, got, fig5a, *rt, rfig5a)
			}
			leaves, rl := tr.Leaves(), refLeaves(ref)
			for j := range rl {
				if leaves[j].Lo != rl[j].Lo || leaves[j].Hi != rl[j].Hi || leaves[j].DataBytes != rl[j].DataBytes {
					t.Fatalf("case %d: leaf %d is %v, reference %+v", c, j, leaves[j], *rl[j])
				}
			}
			if d, rd := DumpTree(tr), refDump(ref); d != rd {
				t.Fatalf("case %d: DumpTree\n%s\nreference\n%s", c, d, rd)
			}
			steps++
		}
	}
	if steps < 1000 {
		t.Errorf("only %d removals compared: the generator no longer builds multi-leaf trees", steps)
	}
}

// BenchmarkPartitionTree measures building a tree and remerging it
// leaf by leaf down to one domain.
func BenchmarkPartitionTree(b *testing.B) {
	cov := datatype.List{{Off: 0, Len: 1 << 30}}
	r := stats.NewRNG(1)
	for i := 0; i < b.N; i++ {
		tr := BuildTree(cov, 1<<22, 256)
		for live := len(tr.leaves); live > 1; live-- {
			tr.remove(liveIndex(tr, r.Intn(live)))
		}
	}
}

// checkInvariants verifies the partition-tree structural invariants of
// the tree as remerging left it: children tile their parent exactly,
// data adds up, leaves tile the root in order.
func (t *Tree) checkInvariants() error {
	var err error
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		if n == nil || err != nil {
			return
		}
		if (n.left == nil) != (n.right == nil) {
			err = fmt.Errorf("vertex %v has exactly one child", n)
			return
		}
		if n.left != nil {
			l, r := n.left, n.right
			if l.Lo != n.Lo || r.Hi != n.Hi || l.Hi != r.Lo {
				err = fmt.Errorf("children of %v do not tile it: %v + %v", n, l, r)
				return
			}
			if l.DataBytes+r.DataBytes != n.DataBytes {
				err = fmt.Errorf("data of %v != children sum %d+%d", n, l.DataBytes, r.DataBytes)
				return
			}
			walk(l)
			walk(r)
		}
	}
	root := t.Root()
	walk(root)
	if err != nil {
		return err
	}
	leaves := t.Leaves()
	prev := root.Lo
	var data int64
	for _, l := range leaves {
		if l.Lo != prev {
			return fmt.Errorf("leaf %v does not start at previous end %d", l, prev)
		}
		prev = l.Hi
		data += l.DataBytes
	}
	if prev != root.Hi {
		return fmt.Errorf("leaves end at %d, root at %d", prev, root.Hi)
	}
	if data != root.DataBytes {
		return fmt.Errorf("leaf data %d != root data %d", data, root.DataBytes)
	}
	return nil
}
