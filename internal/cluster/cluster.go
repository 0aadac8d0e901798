// Package cluster models the compute side of an HPC machine: nodes with
// cores, a per-node memory capacity (optionally drawn from a clipped
// normal distribution to reproduce the paper's memory-variance setup),
// a per-node off-chip memory bus, per-node NICs, and a shared network
// bisection.
//
// The cluster also keeps a memory ledger per node. Collective I/O
// strategies allocate their aggregation buffers through the ledger, so
// "available memory on this host" — the quantity the paper's aggregator
// placement keys on — is a live, queryable value, and every run reports
// per-node high-water marks.
package cluster

import (
	"fmt"
	"strconv"

	"repro/internal/explain"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/stats"
)

// Config describes a machine. Bandwidths are bytes/second, latencies
// seconds, memory sizes bytes.
type Config struct {
	Nodes        int
	CoresPerNode int

	// MemPerNode is the nominal memory budget available for aggregation
	// buffers on each node. When MemSigma > 0, each node's actual
	// capacity is drawn from Normal(MemPerNode, MemSigma*MemPerNode)
	// clipped to [MemFloor, 2*MemPerNode]; this reproduces the paper's
	// "memory buffer sizes ... set up as random variables following a
	// normal distribution".
	MemPerNode int64
	MemSigma   float64 // σ as a fraction of MemPerNode
	MemFloor   int64   // lower clip for sampled capacity (default: MemPerNode/16, min 64 KiB)

	MemBusBW  float64 // off-chip memory bandwidth per node
	MemBusLat float64

	NICBW  float64 // injection bandwidth per node (each direction)
	NICLat float64

	BisectionBW  float64 // shared cross-machine fabric capacity
	BisectionLat float64

	IONetBW  float64 // shared link from compute fabric to the storage system
	IONetLat float64

	Seed uint64 // for memory-capacity sampling
}

// Validate fills defaults and rejects nonsensical configurations.
func (c *Config) Validate() error {
	if c.Nodes <= 0 || c.CoresPerNode <= 0 {
		return fmt.Errorf("cluster: need positive Nodes and CoresPerNode, got %d×%d", c.Nodes, c.CoresPerNode)
	}
	if c.MemPerNode <= 0 {
		return fmt.Errorf("cluster: MemPerNode must be positive, got %d", c.MemPerNode)
	}
	if c.MemSigma < 0 {
		return fmt.Errorf("cluster: negative MemSigma %g", c.MemSigma)
	}
	if c.MemBusBW <= 0 || c.NICBW <= 0 || c.BisectionBW <= 0 || c.IONetBW <= 0 {
		return fmt.Errorf("cluster: all bandwidths must be positive")
	}
	if c.MemFloor == 0 {
		c.MemFloor = c.MemPerNode / 16
		if c.MemFloor < 64<<10 {
			c.MemFloor = 64 << 10
		}
		if c.MemFloor > c.MemPerNode {
			c.MemFloor = c.MemPerNode
		}
	}
	return nil
}

// Node is one physical compute node.
type Node struct {
	ID       int
	Capacity int64 // aggregation-memory budget (after variance sampling)

	used      int64
	highWater int64
	tracer    *obs.Tracer // ledger counter events; nil disables

	// Metrics handles, resolved once at SetMetrics; nil disables with
	// zero per-update cost.
	memUsed *metrics.Gauge
	memPeak *metrics.Gauge

	MemBus *resource.Link // off-chip memory bandwidth, shared by all cores on the node
	NICTx  *resource.Link
	NICRx  *resource.Link
}

// Available returns the memory currently free on the node.
func (n *Node) Available() int64 { return n.Capacity - n.used }

// Used returns the memory currently allocated on the node.
func (n *Node) Used() int64 { return n.used }

// HighWater returns the peak allocation seen on the node.
func (n *Node) HighWater() int64 { return n.highWater }

// sample emits the node's current ledger allocation as a counter
// event when tracing is attached and updates the ledger gauges when
// metrics are attached.
func (n *Node) sample() {
	n.tracer.Counter(obs.CounterMem, obs.Loc{Rank: -1, Node: n.ID, Group: -1, Round: -1}, n.used)
	n.memUsed.Set(float64(n.used))
	n.memPeak.SetMax(float64(n.used))
}

// Alloc reserves b bytes if available, reporting success.
func (n *Node) Alloc(b int64) bool {
	if b < 0 {
		panic(fmt.Sprintf("cluster: negative alloc %d on node %d", b, n.ID))
	}
	if n.used+b > n.Capacity {
		return false
	}
	n.used += b
	if n.used > n.highWater {
		n.highWater = n.used
	}
	n.sample()
	return true
}

// MustAlloc reserves b bytes even if it overcommits the node. The
// overcommitted portion is still tracked, so reports show the pressure;
// it models a strategy that ignores memory limits (the baseline).
func (n *Node) MustAlloc(b int64) {
	if b < 0 {
		panic(fmt.Sprintf("cluster: negative alloc %d on node %d", b, n.ID))
	}
	n.used += b
	if n.used > n.highWater {
		n.highWater = n.used
	}
	n.sample()
}

// InjectPressure charges b bytes of fault-injected memory pressure to
// the node's ledger, as if a co-resident application claimed them. Like
// MustAlloc it may overcommit; the squat lasts for the rest of the run
// (fault pressure does not recede), so it shows up in the high-water
// reports and ledger gauges like any other allocation.
func (n *Node) InjectPressure(b int64) {
	n.MustAlloc(b)
}

// Free releases b bytes. Freeing more than allocated indicates a
// strategy bug and panics.
func (n *Node) Free(b int64) {
	if b < 0 || b > n.used {
		panic(fmt.Sprintf("cluster: free %d with %d used on node %d", b, n.used, n.ID))
	}
	n.used -= b
	n.sample()
}

// Machine is an instantiated cluster.
type Machine struct {
	cfg       Config
	nodes     []*Node
	bisection *resource.Link
	ioNet     *resource.Link
	ranks     int // total processes (Nodes*CoresPerNode by default placement)
	tracer    *obs.Tracer
	metrics   *metrics.Registry
	explain   *explain.Recorder
}

// SetTracer attaches an event tracer: ledger changes on every node
// emit memory counter events, and the MPI/PFS layers running on this
// machine pick the tracer up for their spans. A nil tracer disables
// tracing (the default).
func (m *Machine) SetTracer(t *obs.Tracer) {
	m.tracer = t
	for _, n := range m.nodes {
		n.tracer = t
	}
}

// Tracer returns the attached event tracer (nil when disabled).
func (m *Machine) Tracer() *obs.Tracer { return m.tracer }

// SetMetrics attaches a metrics registry: the memory ledger keeps
// per-node used/peak gauges current, and the MPI/PFS layers running on
// this machine pick the registry up for their counters. Instrument
// handles are resolved here, once, so ledger updates stay a single
// atomic store. A nil registry disables metrics (the default).
func (m *Machine) SetMetrics(r *metrics.Registry) {
	m.metrics = r
	for _, n := range m.nodes {
		if r == nil {
			n.memUsed, n.memPeak = nil, nil
			continue
		}
		id := strconv.Itoa(n.ID)
		r.Gauge("mccio_node_mem_capacity_bytes",
			"Sampled aggregation-memory capacity of the node.", "node", id).Set(float64(n.Capacity))
		n.memUsed = r.Gauge("mccio_node_mem_used_bytes",
			"Current aggregation-buffer allocation on the node's ledger.", "node", id)
		n.memPeak = r.Gauge("mccio_node_mem_peak_bytes",
			"High-water aggregation-buffer allocation on the node's ledger.", "node", id)
	}
}

// Metrics returns the attached metrics registry (nil when disabled).
func (m *Machine) Metrics() *metrics.Registry { return m.metrics }

// SetExplain attaches a decision recorder: the MCCIO planner records
// its group-division, bisection, remerge, and placement decisions, and
// the round engine samples this machine's memory ledger at round
// boundaries. All explain.Recorder methods are nil-safe, so a nil
// recorder disables the audit trail (the default) at zero cost.
func (m *Machine) SetExplain(r *explain.Recorder) { m.explain = r }

// Explain returns the attached decision recorder (nil when disabled).
func (m *Machine) Explain() *explain.Recorder { return m.explain }

// New builds a machine from cfg. Node memory capacities are sampled
// deterministically from cfg.Seed when cfg.MemSigma > 0.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:       cfg,
		bisection: resource.NewLink("bisection", cfg.BisectionBW, cfg.BisectionLat),
		ioNet:     resource.NewLink("ionet", cfg.IONetBW, cfg.IONetLat),
		ranks:     cfg.Nodes * cfg.CoresPerNode,
	}
	rng := stats.NewRNG(cfg.Seed)
	for i := 0; i < cfg.Nodes; i++ {
		capacity := cfg.MemPerNode
		if cfg.MemSigma > 0 {
			capacity = int64(rng.ClippedNormal(
				float64(cfg.MemPerNode),
				cfg.MemSigma*float64(cfg.MemPerNode),
				float64(cfg.MemFloor),
				2*float64(cfg.MemPerNode)))
		}
		m.nodes = append(m.nodes, &Node{
			ID:       i,
			Capacity: capacity,
			MemBus:   resource.NewLink(fmt.Sprintf("membus%d", i), cfg.MemBusBW, cfg.MemBusLat),
			NICTx:    resource.NewLink(fmt.Sprintf("nictx%d", i), cfg.NICBW, cfg.NICLat),
			NICRx:    resource.NewLink(fmt.Sprintf("nicrx%d", i), cfg.NICBW, cfg.NICLat),
		})
	}
	return m, nil
}

// Config returns the machine's configuration (after default filling).
func (m *Machine) Config() Config { return m.cfg }

// NumNodes returns the node count.
func (m *Machine) NumNodes() int { return len(m.nodes) }

// NumRanks returns the total process count under the default placement.
func (m *Machine) NumRanks() int { return m.ranks }

// Node returns node i.
func (m *Machine) Node(i int) *Node {
	return m.nodes[i]
}

// Bisection returns the shared fabric link.
func (m *Machine) Bisection() *resource.Link { return m.bisection }

// NodeOfRank maps a rank to its node under block placement: ranks
// 0..CoresPerNode-1 on node 0, and so on — MPI's default contiguous
// mapping, which the paper assumes when it aligns aggregation groups to
// node boundaries.
func (m *Machine) NodeOfRank(rank int) int {
	if rank < 0 || rank >= m.ranks {
		panic(fmt.Sprintf("cluster: rank %d out of %d", rank, m.ranks))
	}
	return rank / m.cfg.CoresPerNode
}

// StoragePath returns the resource path from a rank to the storage
// network edge (the file system appends its own server/disk hops).
func (m *Machine) StoragePath(rank int) resource.Path {
	n := m.nodes[m.NodeOfRank(rank)]
	return resource.NewPath(n.MemBus, n.NICTx, m.ioNet)
}

// StorageReturnPath is the reverse direction (reads landing in memory).
func (m *Machine) StorageReturnPath(rank int) resource.Path {
	n := m.nodes[m.NodeOfRank(rank)]
	return resource.NewPath(m.ioNet, n.NICRx, n.MemBus)
}

// MemCapacities returns every node's sampled capacity, for reporting.
func (m *Machine) MemCapacities() []int64 {
	out := make([]int64, len(m.nodes))
	for i, n := range m.nodes {
		out[i] = n.Capacity
	}
	return out
}
