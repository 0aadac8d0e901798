// Benchmarks regenerating the paper's evaluation, one per table/figure,
// plus ablations of MCCIO's design choices and microbenchmarks of the
// hot data structures.
//
// The per-figure benchmarks run shrunken-but-same-shape configurations
// so `go test -bench=.` finishes in minutes; the full-scale sweeps
// (paper-sized data and 1080 ranks) are produced by cmd/mccio-bench and
// recorded in EXPERIMENTS.md. Each figure benchmark reports virtual
// application bandwidth as app-MB/s next to the usual host-time ns/op.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchPlatform builds the small-scale platform shared by the figure
// benchmarks: nodes×cores ranks, nominal mem per node with the paper's
// σ=50MB variance, jittered storage.
func benchPlatform(nodes, cores int, mem int64) (cluster.Config, pfs.Config) {
	mcfg := cluster.TestbedConfig(nodes)
	mcfg.CoresPerNode = cores
	mcfg.MemPerNode = mem
	mcfg.MemSigma = float64(50*cluster.MB) / float64(mem)
	mcfg.MemFloor = mem / 4
	mcfg.Seed = 42
	fcfg := pfs.DefaultConfig()
	fcfg.JitterMean = 12e-3
	fcfg.Seed = 42
	return mcfg, fcfg
}

// mccioFor derives calibrated options for a platform and workload.
func mccioFor(mcfg cluster.Config, fcfg pfs.Config, wl workload.Workload, mem int64) core.Options {
	opts := core.DefaultOptions(mcfg, fcfg)
	groups := mcfg.Nodes / 2
	if groups < 1 {
		groups = 1
	}
	opts.Msggroup = wl.TotalBytes() / int64(groups)
	opts.Memmin = mem / 4
	return opts
}

// runSpec executes one simulation per iteration and reports virtual
// bandwidth.
func runSpec(b *testing.B, spec bench.Spec) {
	b.Helper()
	var mbps float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunOnce(spec)
		if err != nil {
			b.Fatal(err)
		}
		mbps = res.BandwidthMBps()
	}
	b.ReportMetric(mbps, "app-MB/s")
}

// BenchmarkTable1Model regenerates Table 1 (the exascale projection and
// its derived per-core memory/bandwidth rows).
func BenchmarkTable1Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := bench.Table1(); len(t.Rows) < 13 {
			b.Fatalf("table lost rows: %d", len(t.Rows))
		}
	}
}

// BenchmarkFig6CollPerf runs the Figure 6 configuration (coll_perf
// 3-D array, two-phase vs mccio) at benchmark scale: 24 ranks, 256³.
func BenchmarkFig6CollPerf(b *testing.B) {
	const mem = 4 * cluster.MiB
	mcfg, fcfg := benchPlatform(6, 4, mem)
	wl := workload.CollPerf3D{Dims: [3]int64{256, 256, 256}, Procs: workload.Grid3(24), Elem: 4}
	b.Run("two-phase/write", func(b *testing.B) {
		runSpec(b, bench.Spec{Strategy: collio.TwoPhase{CBBuffer: mem}, Op: "write", Machine: mcfg, FS: fcfg, Workload: wl})
	})
	b.Run("mccio/write", func(b *testing.B) {
		runSpec(b, bench.Spec{Strategy: core.MCCIO{Opts: mccioFor(mcfg, fcfg, wl, mem)}, Op: "write", Machine: mcfg, FS: fcfg, Workload: wl})
	})
	b.Run("two-phase/read", func(b *testing.B) {
		runSpec(b, bench.Spec{Strategy: collio.TwoPhase{CBBuffer: mem}, Op: "read", Machine: mcfg, FS: fcfg, Workload: wl})
	})
	b.Run("mccio/read", func(b *testing.B) {
		runSpec(b, bench.Spec{Strategy: core.MCCIO{Opts: mccioFor(mcfg, fcfg, wl, mem)}, Op: "read", Machine: mcfg, FS: fcfg, Workload: wl})
	})
}

// BenchmarkFig7IOR120 runs the Figure 7 configuration (IOR interleaved
// at 120 ranks) at benchmark scale.
func BenchmarkFig7IOR120(b *testing.B) {
	const mem = 8 * cluster.MiB
	mcfg, fcfg := benchPlatform(10, 12, mem)
	wl := workload.IOR{Ranks: 120, BlockSize: 1 << 20, Segments: 8}
	for _, op := range []string{"write", "read"} {
		b.Run("two-phase/"+op, func(b *testing.B) {
			runSpec(b, bench.Spec{Strategy: collio.TwoPhase{CBBuffer: mem}, Op: op, Machine: mcfg, FS: fcfg, Workload: wl})
		})
		b.Run("mccio/"+op, func(b *testing.B) {
			runSpec(b, bench.Spec{Strategy: core.MCCIO{Opts: mccioFor(mcfg, fcfg, wl, mem)}, Op: op, Machine: mcfg, FS: fcfg, Workload: wl})
		})
	}
}

// BenchmarkFig8IOR1080 runs the Figure 8 configuration (IOR interleaved
// at 1080 ranks, 90 nodes) at reduced per-rank volume.
func BenchmarkFig8IOR1080(b *testing.B) {
	const mem = 16 * cluster.MiB
	mcfg, fcfg := benchPlatform(90, 12, mem)
	wl := workload.IOR{Ranks: 1080, BlockSize: 512 << 10, Segments: 4}
	for _, op := range []string{"write", "read"} {
		b.Run("two-phase/"+op, func(b *testing.B) {
			runSpec(b, bench.Spec{Strategy: collio.TwoPhase{CBBuffer: mem}, Op: op, Machine: mcfg, FS: fcfg, Workload: wl})
		})
		b.Run("mccio/"+op, func(b *testing.B) {
			runSpec(b, bench.Spec{Strategy: core.MCCIO{Opts: mccioFor(mcfg, fcfg, wl, mem)}, Op: op, Machine: mcfg, FS: fcfg, Workload: wl})
		})
	}
}

// BenchmarkAblation isolates each MCCIO mechanism (the design choices
// DESIGN.md §6 calls out) on the small IOR configuration.
func BenchmarkAblation(b *testing.B) {
	const mem = 4 * cluster.MiB
	mcfg, fcfg := benchPlatform(8, 4, mem)
	wl := workload.IOR{Ranks: 32, BlockSize: 512 << 10, Segments: 16}
	full := mccioFor(mcfg, fcfg, wl, mem)
	variants := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"full", nil},
		{"no-groups", func(o *core.Options) { o.DisableGroups = true }},
		{"no-memaware", func(o *core.Options) { o.DisableMemAware = true }},
		{"no-remerge", func(o *core.Options) { o.DisableRemerge = true }},
		{"nah-1", func(o *core.Options) { o.Nah = 1 }},
	}
	for _, v := range variants {
		opts := full
		if v.mutate != nil {
			v.mutate(&opts)
		}
		b.Run(v.name, func(b *testing.B) {
			runSpec(b, bench.Spec{Strategy: core.MCCIO{Opts: opts}, Op: "write", Machine: mcfg, FS: fcfg, Workload: wl})
		})
	}
	b.Run("baseline", func(b *testing.B) {
		runSpec(b, bench.Spec{Strategy: collio.TwoPhase{CBBuffer: mem}, Op: "write", Machine: mcfg, FS: fcfg, Workload: wl})
	})
}

// BenchmarkMsgindSweep ablates the partition-tree granularity. Memory
// is plentiful and the workload small so Msgind — not the aggregator
// budget — decides the leaf count.
func BenchmarkMsgindSweep(b *testing.B) {
	const mem = 64 * cluster.MiB
	mcfg, fcfg := benchPlatform(8, 4, mem)
	wl := workload.IOR{Ranks: 32, BlockSize: 128 << 10, Segments: 8}
	for _, msgind := range []int64{512 << 10, 2 << 20, 8 << 20} {
		opts := mccioFor(mcfg, fcfg, wl, mem)
		opts.Msgind = msgind
		opts.Memmin = 1 << 20
		b.Run(bytesName(msgind), func(b *testing.B) {
			runSpec(b, bench.Spec{Strategy: core.MCCIO{Opts: opts}, Op: "write", Machine: mcfg, FS: fcfg, Workload: wl})
		})
	}
}

func bytesName(n int64) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMB", n>>20)
	}
	return fmt.Sprintf("%dKB", n>>10)
}

// --- Microbenchmarks of the hot substrate paths ---

// BenchmarkEngineEvents measures raw event throughput of the
// discrete-event core.
func BenchmarkEngineEvents(b *testing.B) {
	e := simtime.NewEngine()
	e.Spawn("ticker", func(p *simtime.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1e-6)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSegmentClip measures the view-clipping hot path of the
// two-phase round loop.
func BenchmarkSegmentClip(b *testing.B) {
	r := stats.NewRNG(1)
	raw := make([]datatype.Segment, 4096)
	for i := range raw {
		raw[i] = datatype.Segment{Off: r.Int63n(1 << 30), Len: 1 + r.Int63n(1<<16)}
	}
	l := datatype.Normalize(raw)
	lo, hi := l.Extent()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := lo + int64(i)%(hi-lo)
		_ = l.Clip(w, w+1<<20)
	}
}

// BenchmarkNormalize measures canonicalization of a large request list.
func BenchmarkNormalize(b *testing.B) {
	r := stats.NewRNG(1)
	raw := make([]datatype.Segment, 65536)
	for i := range raw {
		raw[i] = datatype.Segment{Off: r.Int63n(1 << 32), Len: 1 + r.Int63n(1<<14)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = datatype.Normalize(raw)
	}
}

// BenchmarkDataSieving measures the independent-I/O comparator.
func BenchmarkDataSieving(b *testing.B) {
	mcfg, fcfg := benchPlatform(1, 1, 64*cluster.MiB)
	wl := workload.IOR{Ranks: 1, BlockSize: 64 << 10, Segments: 128}
	runSpec(b, bench.Spec{Strategy: iolib.Naive{Opts: iolib.DefaultSieve()}, Op: "write", Machine: mcfg, FS: fcfg, Workload: wl})
}
