package cluster

import (
	"testing"
	"testing/quick"

	"repro/internal/resource"
)

func testConfig(nodes, cores int) Config {
	return Config{
		Nodes:        nodes,
		CoresPerNode: cores,
		MemPerNode:   64 * MiB,
		MemBusBW:     1e9,
		NICBW:        1e8,
		BisectionBW:  1e9,
		IONetBW:      1e8,
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{},
		{Nodes: 1},
		{Nodes: 1, CoresPerNode: 1},
		{Nodes: -2, CoresPerNode: 4, MemPerNode: 1, MemBusBW: 1, NICBW: 1, BisectionBW: 1, IONetBW: 1},
		{Nodes: 2, CoresPerNode: 4, MemPerNode: 1, MemBusBW: 0, NICBW: 1, BisectionBW: 1, IONetBW: 1},
		{Nodes: 2, CoresPerNode: 4, MemPerNode: 1, MemSigma: -1, MemBusBW: 1, NICBW: 1, BisectionBW: 1, IONetBW: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestBlockPlacement(t *testing.T) {
	m, err := New(testConfig(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRanks() != 12 {
		t.Fatalf("ranks %d, want 12", m.NumRanks())
	}
	cases := []struct{ rank, node int }{{0, 0}, {3, 0}, {4, 1}, {7, 1}, {8, 2}, {11, 2}}
	for _, c := range cases {
		if got := m.NodeOfRank(c.rank); got != c.node {
			t.Errorf("NodeOfRank(%d)=%d, want %d", c.rank, got, c.node)
		}
	}
}

func TestPlacementCoversAllRanksExactlyOnce(t *testing.T) {
	f := func(nodes, cores uint8) bool {
		n := int(nodes%20) + 1
		c := int(cores%16) + 1
		m, err := New(testConfig(n, c))
		if err != nil {
			return false
		}
		if m.NumRanks() != n*c {
			return false
		}
		perNode := make([]int, n)
		for r := 0; r < m.NumRanks(); r++ {
			perNode[m.NodeOfRank(r)]++
		}
		for _, got := range perNode {
			if got != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryLedger(t *testing.T) {
	m, err := New(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	n := m.Node(0)
	if !n.Alloc(32 * MiB) {
		t.Fatal("alloc within capacity failed")
	}
	if n.Alloc(40 * MiB) {
		t.Fatal("alloc beyond capacity succeeded")
	}
	if n.Available() != 32*MiB {
		t.Fatalf("available %d, want %d", n.Available(), 32*MiB)
	}
	n.MustAlloc(64 * MiB) // overcommit allowed, tracked
	if n.HighWater() != 96*MiB {
		t.Fatalf("highwater %d, want %d", n.HighWater(), 96*MiB)
	}
	n.Free(96 * MiB)
	if n.Used() != 0 {
		t.Fatalf("used %d after full free", n.Used())
	}
}

func TestFreeTooMuchPanics(t *testing.T) {
	m, _ := New(testConfig(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("over-free did not panic")
		}
	}()
	m.Node(0).Free(1)
}

func TestMemoryVarianceSampledDeterministically(t *testing.T) {
	cfg := testConfig(32, 2)
	cfg.MemSigma = 0.5
	cfg.Seed = 99
	m1, _ := New(cfg)
	m2, _ := New(cfg)
	c1, c2 := m1.MemCapacities(), m2.MemCapacities()
	varied := false
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("node %d capacity differs across identical configs", i)
		}
		if c1[i] != cfg.MemPerNode {
			varied = true
		}
		if c1[i] < cfg.MemFloor || c1[i] > 2*cfg.MemPerNode {
			t.Fatalf("node %d capacity %d outside clip range", i, c1[i])
		}
	}
	if !varied {
		t.Fatal("sigma=0.5 produced no variance at all")
	}
}

func TestZeroSigmaMeansUniform(t *testing.T) {
	cfg := testConfig(8, 2)
	m, _ := New(cfg)
	for i, c := range m.MemCapacities() {
		if c != cfg.MemPerNode {
			t.Fatalf("node %d capacity %d, want %d", i, c, cfg.MemPerNode)
		}
	}
}

// TestInterNodeSlowerThanIntraNode: over the machine's own links, a
// message that crosses both NICs and the bisection takes longer than
// one that stays on a node's memory bus.
func TestInterNodeSlowerThanIntraNode(t *testing.T) {
	m, _ := New(testConfig(2, 2))
	a, b := m.Node(0), m.Node(1)
	intra := resource.NewPath(a.MemBus).Reserve(0, 1<<20)
	inter := resource.NewPath(a.MemBus, a.NICTx, m.Bisection(), b.NICRx, b.MemBus).Reserve(0, 1<<20)
	if inter <= intra {
		t.Fatalf("inter-node %g not slower than intra-node %g", inter, intra)
	}
}

func TestPresetsValidate(t *testing.T) {
	if _, err := New(TestbedConfig(10)); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
}

func TestStoragePathsDistinctDirections(t *testing.T) {
	m, _ := New(testConfig(2, 1))
	out := m.StoragePath(0).Links()
	back := m.StorageReturnPath(0).Links()
	if out[1] != m.Node(0).NICTx || back[1] != m.Node(0).NICRx {
		t.Fatal("storage paths use wrong NIC directions")
	}
}
