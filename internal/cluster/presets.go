package cluster

// Presets for the two machines the paper talks about: the testbed its
// experiments ran on, and the projected exascale design of Table 1.

const (
	KiB = int64(1) << 10
	MiB = int64(1) << 20
	GiB = int64(1) << 30

	// KB/MB/GB are the decimal units storage vendors (and the paper's
	// MB/s bandwidth figures) use.
	KB = int64(1e3)
	MB = int64(1e6)
	GB = int64(1e9)
)

// TestbedConfig models the paper's evaluation platform: a Linux cluster
// whose nodes have two 6-core Xeons (12 cores) and 24 GB of memory,
// DDR InfiniBand (~2 GB/s injection) with full cross-section bandwidth,
// and a DataDirect/Lustre storage backend. MemPerNode here is NOT the
// physical 24 GB but the aggregation-memory budget under study; the
// experiments sweep it, so callers override it per run.
func TestbedConfig(nodes int) Config {
	return Config{
		Nodes:        nodes,
		CoresPerNode: 12,
		MemPerNode:   128 * MiB, // overridden by experiment sweeps
		MemSigma:     0,
		MemBusBW:     25 * float64(GB), // per-node off-chip bandwidth (2010-era, Table 1)
		MemBusLat:    200e-9,
		NICBW:        1.5 * float64(GB), // Table 1 "Interconnect BW" 2010 column
		NICLat:       2e-6,
		// Full cross-section: bisection scales with node count.
		BisectionBW:  float64(nodes) * 1.5 * float64(GB) / 2,
		BisectionLat: 1e-6,
		// Shared pipe into the storage system; chosen so that the
		// simulated testbed lands near the paper's observed 1.6–2 GB/s
		// aggregate Lustre throughput at 1080 ranks.
		IONetBW:  2.4 * float64(GB),
		IONetLat: 20e-6,
		Seed:     1,
	}
}
