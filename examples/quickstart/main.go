// Quickstart: 16 simulated MPI ranks on 4 nodes collectively write an
// interleaved file with memory-conscious collective I/O, read it back,
// and verify every byte.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/trace"
)

func main() {
	// A little machine: 4 nodes x 4 cores, 8 MB of aggregation memory
	// per node with heavy variance (sigma = 50 MB, the paper's setup).
	engine := simtime.NewEngine()
	mcfg := cluster.Config{
		Nodes: 4, CoresPerNode: 4,
		MemPerNode: 8 * cluster.MiB,
		MemSigma:   float64(50*cluster.MB) / float64(8*cluster.MiB),
		MemFloor:   2 * cluster.MiB,
		MemBusBW:   25e9, MemBusLat: 2e-7,
		NICBW: 1.5e9, NICLat: 2e-6,
		BisectionBW: 3e9, BisectionLat: 1e-6,
		IONetBW: 2.4e9, IONetLat: 2e-5,
		Seed: 7,
	}
	machine, err := cluster.New(mcfg)
	if err != nil {
		log.Fatal(err)
	}
	fcfg := pfs.DefaultConfig()
	fs, err := pfs.New(fcfg, machine)
	if err != nil {
		log.Fatal(err)
	}
	world, err := mpi.NewWorld(engine, machine, 16)
	if err != nil {
		log.Fatal(err)
	}
	file := fs.Open("quickstart.dat")

	// The strategy under test: MCCIO with platform-calibrated options.
	opts := core.DefaultOptions(mcfg, fcfg)
	opts.Msggroup = 8 * cluster.MiB // small groups so the example shows several
	opts.Memmin = 1 * cluster.MiB
	strategy := core.MCCIO{Opts: opts}

	var result trace.Result
	world.Start(func(c *mpi.Comm) {
		// Each rank owns every 16th 64 KiB block — the classic
		// interleaved pattern collective I/O exists for.
		const blockLen = 64 << 10
		const blocks = 16
		view := datatype.Normalize(datatype.Vector{
			Count:    blocks,
			BlockLen: blockLen,
			Stride:   blockLen * 16,
		}.Segments(nil, int64(c.Rank())*blockLen))

		// Fill the local buffer with a per-rank pattern keyed by file
		// offset, write collectively, then read back and verify.
		data := buffer.NewReal(view.TotalBytes())
		pos := int64(0)
		for _, s := range view {
			data.Slice(pos, s.Len).Fill(uint64(c.Rank()), s.Off)
			pos += s.Len
		}
		r := iolib.Run(strategy, "write", file, c, view, data, &trace.Metrics{})
		if c.Rank() == 0 {
			result = r
		}

		dst := buffer.NewReal(view.TotalBytes())
		iolib.Run(strategy, "read", file, c, view, dst, nil)
		pos = 0
		for _, s := range view {
			if i := dst.Slice(pos, s.Len).Verify(uint64(c.Rank()), s.Off); i != -1 {
				log.Fatalf("rank %d: verification failed in %v at byte %d", c.Rank(), s, i)
			}
			pos += s.Len
		}
	})
	if err := engine.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("collective write:", result.String())
	fmt.Printf("node memory (MB):")
	for _, cap := range machine.MemCapacities() {
		fmt.Printf(" %.1f", float64(cap)/1e6)
	}
	fmt.Println("\nall 16 ranks verified every byte they read back — OK")
}
