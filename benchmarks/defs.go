package main

// metricDef is one named metric of the benchmark. BENCHMARK.json lists
// the same names, units and directions (TestSmokeNamesMatchBenchmarkJSON
// holds the two together); Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change is a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end metrics only
}

// endToEndDefs are the metrics a user of the simulator or the plan
// service would see, for every workload. The ISSUE's failed_share is
// the contract's attempted/failed pair (a metric that is always 0 has
// no parent median to take a share of), and model_gain is a simulated
// quantity that exists on sim-* only, so it lives in the ledger as
// sim.model_gain.
var endToEndDefs = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// cpuLayers are the buckets of the CPU attribution, in print order: the
// repo's packages that do work on a benchmark path, the standard-library
// stages of the request path, the Go runtime, the benchmark's own
// frames, and the rest.
var cpuLayers = append(append([]string{}, repoLayers...),
	"json", "sha256", "nethttp", "runtime", "client", "other")

// repoLayers are the packages under internal/ that get a bucket of
// their own; the rest of the repo's frames count as "other".
var repoLayers = []string{
	"simtime", "mpi", "collio", "resource", "pfs", "datatype", "core",
	"twolayer", "iolib", "cluster", "workload", "pland",
}

// rowStrategies are the simulated strategies in grid order; with
// {write, read} they are the four copies of the collio round loop
// (flat vs combined exchange × write vs read).
var rowStrategies = []string{"two-phase", "mccio", "two-layer", "mccio-2l"}

var rowOps = []string{"write", "read"}

// perLayerDefs is the per-layer ledger. Every name is printed on every
// workload's traced run; a metric its workload does not exercise reads
// 0 (the sim counts on serve-*, the service stages on sim-*).
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	add("bench.trace_overhead_ratio", "ratio", "lower")
	for _, l := range cpuLayers {
		add(l+".cpu_share", "ratio", "lower")
	}
	// Exact work counts and the simulated-time split, sim-* only.
	add("sim.model_gain", "ratio", "higher")
	add("collio.rounds", "count", "lower")
	add("collio.aggregators", "count", "lower")
	add("core.groups", "count", "lower")
	add("core.remerges", "count", "lower")
	add("twolayer.leaders", "count", "lower")
	add("mpi.shuffle_intra_mb", "MB", "lower")
	add("mpi.shuffle_inter_mb", "MB", "lower")
	add("pfs.io_mb", "MB", "lower")
	add("pfs.io_requests", "count", "lower")
	add("collio.sim_exchange_s", "s", "lower")
	add("pfs.sim_io_s", "s", "lower")
	add("sim.elapsed_s", "s", "lower")
	add("collio.host_us_per_round_rank", "us", "lower")
	for _, s := range rowStrategies {
		for _, op := range rowOps {
			add("row."+s+"."+op+".ms", "ms", "lower")
		}
	}
	// Service counters and the stage replica, serve-* only.
	add("pland.hit_p50_ms", "ms", "lower")
	add("pland.miss_p50_ms", "ms", "lower")
	add("pland.p99_ms", "ms", "lower")
	add("pland.hit_share", "ratio", "higher")
	add("pland.shed_share", "ratio", "lower")
	add("pland.planner_runs", "count", "lower")
	add("pland.req_kb", "kB", "lower")
	add("pland.resp_kb", "kB", "lower")
	add("pland.decode_us", "us", "lower")
	add("datatype.normalize_us", "us", "lower")
	add("core.inspect_us", "us", "lower")
	add("collio.planfrommeta_us", "us", "lower")
	add("twolayer.planfrommeta_us", "us", "lower")
	add("pland.encode_us", "us", "lower")
	add("pland.cache_hit_ns", "ns", "lower")
	add("pland.http_floor_us", "us", "lower")
	add("pland.hit_residual_us", "us", "lower")
	// Layer micro-table, every workload.
	for _, m := range microDefs {
		add(m.name, m.unit, "lower")
	}
	// Telemetry cost when on: the sim sinks on sim-lockstep, the
	// request log on serve-hot.
	add("obs.on_wall_ratio", "ratio", "lower")
	add("metrics.on_wall_ratio", "ratio", "lower")
	add("explain.on_wall_ratio", "ratio", "lower")
	add("logx.on_p50_ratio", "ratio", "lower")
	return defs
}
