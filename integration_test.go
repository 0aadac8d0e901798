// Integration tests across the whole stack: strategies must
// interoperate on the same file, runs must be deterministic, traces
// must replay faithfully, and every byte must survive arbitrary
// workloads under every strategy.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/adio"
	"repro/internal/bench"
	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/iolib"
	"repro/internal/iotrace"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// quietPlatform is a small machine without jitter for byte-exact tests.
func quietPlatform(nodes, cores int) (cluster.Config, pfs.Config) {
	mcfg := cluster.TestbedConfig(nodes)
	mcfg.CoresPerNode = cores
	mcfg.MemPerNode = 8 * cluster.MiB
	mcfg.MemSigma = float64(50*cluster.MB) / float64(mcfg.MemPerNode)
	mcfg.MemFloor = 2 * cluster.MiB
	mcfg.Seed = 5
	fcfg := pfs.DefaultConfig()
	fcfg.Seed = 5
	return mcfg, fcfg
}

// mccioOpts builds strategy options for the quiet platform.
func mccioOpts(mcfg cluster.Config, fcfg pfs.Config, total int64) core.Options {
	opts := core.DefaultOptions(mcfg, fcfg)
	opts.Msggroup = total / 2
	opts.Memmin = 1 << 20
	return opts
}

// TestCrossStrategyInterop writes with one strategy and reads with
// another in every combination; the file contents are strategy-
// independent, so every combination must verify. The set is every
// selectable strategy (strategy.Names through adio.New) plus
// "mccio-combine", mccio with two-layer composed into its groups.
func TestCrossStrategyInterop(t *testing.T) {
	mcfg, fcfg := quietPlatform(3, 4)
	const nprocs = 12
	wl := workload.IOR{Ranks: nprocs, BlockSize: 32 << 10, Segments: 8}
	opts := mccioOpts(mcfg, fcfg, wl.TotalBytes())
	strategies := map[string]iolib.Collective{}
	for _, name := range strategy.Names() {
		s, err := adio.New(name, opts, 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		strategies[name] = s
	}
	opts.TwoLayer = true
	strategies["mccio-combine"] = core.MCCIO{Opts: opts}
	for wName, w := range strategies {
		for rName, r := range strategies {
			t.Run(wName+"->"+rName, func(t *testing.T) {
				engine := simtime.NewEngine()
				machine, err := cluster.New(mcfg)
				if err != nil {
					t.Fatal(err)
				}
				fs, err := pfs.New(fcfg, machine)
				if err != nil {
					t.Fatal(err)
				}
				world, err := mpi.NewWorld(engine, machine, nprocs)
				if err != nil {
					t.Fatal(err)
				}
				file := fs.Open("interop")
				world.Start(func(c *mpi.Comm) {
					view := wl.View(c.Rank())
					data := buffer.NewReal(view.TotalBytes())
					var pos int64
					for _, s := range view {
						data.Slice(pos, s.Len).Fill(uint64(c.Rank()), s.Off)
						pos += s.Len
					}
					iolib.Run(w, "write", file, c, view, data, nil)
					dst := buffer.NewReal(view.TotalBytes())
					iolib.Run(r, "read", file, c, view, dst, nil)
					pos = 0
					for _, s := range view {
						if i := dst.Slice(pos, s.Len).Verify(uint64(c.Rank()), s.Off); i != -1 {
							t.Errorf("rank %d %v byte %d", c.Rank(), s, i)
						}
						pos += s.Len
					}
				})
				if err := engine.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDeterminism runs the same spec twice and demands identical
// virtual timing and metrics.
func TestDeterminism(t *testing.T) {
	mcfg, fcfg := quietPlatform(4, 4)
	fcfg.JitterMean = 12e-3 // jitter is seeded, so still deterministic
	wl := workload.IOR{Ranks: 16, BlockSize: 256 << 10, Segments: 8}
	spec := bench.Spec{
		Strategy: core.MCCIO{Opts: mccioOpts(mcfg, fcfg, wl.TotalBytes())},
		Op:       "write", Machine: mcfg, FS: fcfg, Workload: wl,
	}
	a, err := bench.RunOnce(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.RunOnce(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Rounds != b.Rounds || a.BytesShuffleInter != b.BytesShuffleInter {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestSeedSensitivity: different storage-jitter seeds must actually
// change timing (the jitter is real), without changing correctness.
func TestSeedSensitivity(t *testing.T) {
	mcfg, fcfg := quietPlatform(4, 4)
	fcfg.JitterMean = 12e-3
	wl := workload.IOR{Ranks: 16, BlockSize: 256 << 10, Segments: 8}
	run := func(seed uint64) float64 {
		f := fcfg
		f.Seed = seed
		res, err := bench.RunOnce(bench.Spec{
			Strategy: collio.TwoPhase{CBBuffer: 1 << 20},
			Op:       "write", Machine: mcfg, FS: f, Workload: wl,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	if run(1) == run(2) {
		t.Fatal("different jitter seeds produced identical timing")
	}
}

// TestTraceReplayEndToEnd: a generated trace replays through the full
// simulator with verification.
func TestTraceReplayEndToEnd(t *testing.T) {
	wl := workload.Random{Ranks: 8, SegsPerRank: 16, SegLen: 8 << 10, FileSize: 4 << 20, Seed: 3}
	tr := iotrace.FromWorkload(wl, iotrace.Write)
	rp, err := iotrace.NewReplay(tr, iotrace.Write)
	if err != nil {
		t.Fatal(err)
	}
	mcfg, fcfg := quietPlatform(2, 4)
	res, err := bench.RunOnce(bench.Spec{
		Strategy: core.MCCIO{Opts: mccioOpts(mcfg, fcfg, rp.TotalBytes())},
		Op:       "write", Machine: mcfg, FS: fcfg, Workload: rp, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != wl.TotalBytes() {
		t.Fatalf("replayed %d bytes, want %d", res.Bytes, wl.TotalBytes())
	}
}

// TestHintsDrivenRun builds strategies from ADIO hints and runs them
// verified.
func TestHintsDrivenRun(t *testing.T) {
	mcfg, fcfg := quietPlatform(2, 4)
	wl := workload.IOR{Ranks: 8, BlockSize: 64 << 10, Segments: 4}
	for _, hs := range []string{
		"collective=mccio,mccio_two_layer=true",
		"collective=two_phase,cb_buffer_size=262144",
		"romio_cb_write=disable",
	} {
		h, err := adio.ParseHints(hs)
		if err != nil {
			t.Fatal(err)
		}
		s, err := h.BuildStrategy(mcfg, fcfg, wl.TotalBytes())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bench.RunOnce(bench.Spec{
			Strategy: s, Op: "write", Machine: mcfg, FS: fcfg, Workload: wl, Verify: true,
		}); err != nil {
			t.Fatalf("%s: %v", hs, err)
		}
	}
}

// TestRandomizedWorkloadsVerify fuzzes random workloads through both
// collective strategies with full byte verification.
func TestRandomizedWorkloadsVerify(t *testing.T) {
	rng := stats.NewRNG(99)
	for trial := 0; trial < 6; trial++ {
		seed := rng.Uint64()
		wl := workload.Random{
			Ranks:       8,
			SegsPerRank: 4 + rng.Intn(24),
			SegLen:      int64(1+rng.Intn(32)) << 10,
			FileSize:    8 << 20,
			Seed:        seed,
		}
		mcfg, fcfg := quietPlatform(2, 4)
		for _, s := range []iolib.Collective{
			collio.TwoPhase{CBBuffer: int64(64+rng.Intn(512)) << 10},
			core.MCCIO{Opts: mccioOpts(mcfg, fcfg, wl.TotalBytes())},
		} {
			for _, op := range []string{"write", "read"} {
				if _, err := bench.RunOnce(bench.Spec{
					Strategy: s, Op: op, Machine: mcfg, FS: fcfg, Workload: wl, Verify: true,
				}); err != nil {
					t.Fatalf("trial %d %s %s (wl seed %d): %v", trial, s.Name(), op, seed, err)
				}
			}
		}
	}
}

// TestManyGroupsManyNodesSmoke pushes a wider machine through MCCIO
// with per-node groups as a structural stress test.
func TestManyGroupsManyNodesSmoke(t *testing.T) {
	mcfg, fcfg := quietPlatform(12, 4)
	wl := workload.IOR{Ranks: 48, BlockSize: 128 << 10, Segments: 6}
	opts := mccioOpts(mcfg, fcfg, wl.TotalBytes())
	opts.Msggroup = 1 // one group per node
	res, err := bench.RunOnce(bench.Spec{
		Strategy: core.MCCIO{Opts: opts}, Op: "write", Machine: mcfg, FS: fcfg, Workload: wl, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups < 6 {
		t.Fatalf("expected many groups, got %d", res.Groups)
	}
}

// TestWorkloadGallery runs every workload generator through MCCIO with
// verification — the generators and strategies must compose.
func TestWorkloadGallery(t *testing.T) {
	mcfg, fcfg := quietPlatform(2, 4)
	wls := []workload.Workload{
		workload.IOR{Ranks: 8, BlockSize: 64 << 10, Segments: 4},
		workload.CollPerf3D{Dims: [3]int64{32, 32, 32}, Procs: workload.Grid3(8), Elem: 4},
		workload.Random{Ranks: 8, SegsPerRank: 8, SegLen: 4 << 10, FileSize: 2 << 20, Seed: 1},
		workload.Tile2D{Rows: 64, Cols: 64, TilesX: 4, TilesY: 2, Elem: 4},
		workload.Checkpoint{Ranks: 8, MeanBytes: 64 << 10, Sigma: 0.5, Seed: 1, Align: 4 << 10},
	}
	for _, wl := range wls {
		t.Run(fmt.Sprintf("%.24s", wl.Name()), func(t *testing.T) {
			if _, err := bench.RunOnce(bench.Spec{
				Strategy: core.MCCIO{Opts: mccioOpts(mcfg, fcfg, wl.TotalBytes())},
				Op:       "write", Machine: mcfg, FS: fcfg, Workload: wl, Verify: true,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
