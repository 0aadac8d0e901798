package core

import (
	"fmt"
	"strings"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/simtime"
)

// Calibration is the measurement-based determination of MCCIO's
// tunables that §3 of the paper describes:
//
//	"First we determine the optimal number of aggregators N_ah and
//	 message size Msg_ind per aggregator that can fully utilize the
//	 I/O bandwidth in one physical compute node ... Next we identify
//	 the minimum memory consumption Mem_min for one physical node ...
//	 Finally, we consider the aggregation I/O traffic contention on
//	 system level by increasing the number of aggregators across the
//	 system network [to] find the optimal group message size Msg_group."
//
// Each step runs micro-simulations on a throwaway copy of the platform
// and reads throughput off the virtual clock, exactly as the authors
// measured their cluster. DefaultOptions is the closed-form shortcut;
// Calibrate is the empirical procedure.

// CalibrationReport records what each step measured.
type CalibrationReport struct {
	MsgindCurve   []CurvePoint // message size -> single-stream MB/s
	NahCurve      []CurvePoint // writers per node -> node aggregate MB/s
	MemminCurve   []CurvePoint // buffer size -> rounds-limited MB/s
	MsggroupCurve []CurvePoint // system-wide aggregators -> aggregate MB/s
	Result        Options
}

// CurvePoint is one measured point of a calibration sweep.
type CurvePoint struct {
	X float64 // the swept parameter (bytes or count)
	Y float64 // measured MB/s
}

// String renders the report compactly.
func (cr *CalibrationReport) String() string {
	var b strings.Builder
	dump := func(name string, pts []CurvePoint) {
		fmt.Fprintf(&b, "%s:", name)
		for _, p := range pts {
			fmt.Fprintf(&b, " (%.3g → %.0f MB/s)", p.X, p.Y)
		}
		fmt.Fprintln(&b)
	}
	dump("msgind", cr.MsgindCurve)
	dump("nah", cr.NahCurve)
	dump("memmin", cr.MemminCurve)
	dump("msggroup", cr.MsggroupCurve)
	fmt.Fprintf(&b, "result: Msgind=%d Nah=%d Memmin=%d Msggroup=%d\n",
		cr.Result.Msgind, cr.Result.Nah, cr.Result.Memmin, cr.Result.Msggroup)
	return b.String()
}

// measureStreams times k concurrent writer processes on the first k
// slots of a fresh copy of the platform, each writing total bytes in
// msgSize requests, and returns aggregate MB/s. Jitter is disabled so
// the curves show the systematic knees, not noise.
func measureStreams(mcfg cluster.Config, fcfg pfs.Config, writers int, perNode int, msgSize, total int64) (float64, error) {
	fcfg.JitterMean = 0
	mcfg.MemSigma = 0
	// Give the probe machine plenty of ledger room; calibration probes
	// raw transport, not the allocator.
	mcfg.MemPerNode = 4 << 30
	mcfg.MemFloor = 0
	if perNode < 1 {
		perNode = 1
	}
	nodesNeeded := (writers + perNode - 1) / perNode
	if nodesNeeded > mcfg.Nodes {
		mcfg.Nodes = nodesNeeded
	}
	engine := simtime.NewEngine()
	machine, err := cluster.New(mcfg)
	if err != nil {
		return 0, err
	}
	fs, err := pfs.New(fcfg, machine)
	if err != nil {
		return 0, err
	}
	f := fs.Open("calib")
	// Place writer i on node i/perNode, core i%perNode.
	world, err := mpi.NewWorld(engine, machine, machine.NumRanks())
	if err != nil {
		return 0, err
	}
	var last float64
	world.Start(func(c *mpi.Comm) {
		node := c.Rank() / mcfg.CoresPerNode
		core := c.Rank() % mcfg.CoresPerNode
		writer := node*perNode + core
		if core >= perNode || writer >= writers {
			return
		}
		off := int64(writer) * total
		for pos := int64(0); pos < total; pos += msgSize {
			n := msgSize
			if pos+n > total {
				n = total - pos
			}
			f.WriteAt(c.Proc(), c.WorldRank(c.Rank()), off+pos, buffer.NewPhantom(n))
		}
		if c.Now() > last {
			last = c.Now()
		}
	})
	if err := engine.Run(); err != nil {
		return 0, err
	}
	if last <= 0 {
		return 0, fmt.Errorf("core: calibration run moved no data")
	}
	return float64(int64(writers)*total) / 1e6 / last, nil
}

// Calibrate measures Msgind, Nah, Memmin, and Msggroup on the platform.
func Calibrate(mcfg cluster.Config, fcfg pfs.Config) (*CalibrationReport, error) {
	rep := &CalibrationReport{}
	const probeData = 64 << 20

	// Step 1 — Msgind: single stream, growing message size; pick the
	// smallest size reaching 90% of the best observed throughput.
	var best float64
	sizes := []int64{64 << 10, 256 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20}
	rates := make([]float64, len(sizes))
	for i, sz := range sizes {
		r, err := measureStreams(mcfg, fcfg, 1, 1, sz, probeData)
		if err != nil {
			return nil, err
		}
		rates[i] = r
		rep.MsgindCurve = append(rep.MsgindCurve, CurvePoint{X: float64(sz), Y: r})
		if r > best {
			best = r
		}
	}
	msgind := sizes[len(sizes)-1]
	for i, r := range rates {
		if r >= 0.9*best {
			msgind = sizes[i]
			break
		}
	}
	// Align to the stripe unit as the paper's domain layout implies.
	if msgind < fcfg.StripeUnit {
		msgind = fcfg.StripeUnit
	} else {
		msgind = (msgind + fcfg.StripeUnit - 1) / fcfg.StripeUnit * fcfg.StripeUnit
	}

	// Step 2 — Nah: one node, growing concurrent writers at Msgind; pick
	// the last count that still improved node throughput by >= 5%.
	nah := 1
	var prev float64
	for k := 1; k <= mcfg.CoresPerNode; k++ {
		r, err := measureStreams(mcfg, fcfg, k, k, msgind, probeData/int64(k))
		if err != nil {
			return nil, err
		}
		rep.NahCurve = append(rep.NahCurve, CurvePoint{X: float64(k), Y: r})
		if k == 1 || r >= prev*1.05 {
			nah = k
			prev = r
		} else {
			break
		}
	}

	// Step 3 — Memmin: one aggregator streaming a fixed volume through
	// shrinking buffers (more, smaller requests); the minimum viable
	// memory is the smallest buffer keeping >= 50% of the Msgind rate.
	memmin := msgind
	bufs := []int64{msgind, msgind / 2, msgind / 4, msgind / 8, msgind / 16}
	for _, b := range bufs {
		if b < 64<<10 {
			break
		}
		r, err := measureStreams(mcfg, fcfg, 1, 1, b, probeData)
		if err != nil {
			return nil, err
		}
		rep.MemminCurve = append(rep.MemminCurve, CurvePoint{X: float64(b), Y: r})
		if r >= 0.5*best {
			memmin = b
		}
	}

	// Step 4 — Msggroup: growing aggregator count across nodes (Nah per
	// node) at Msgind; saturation count × Msgind × pipeline depth gives
	// the group message size.
	satAggs := 1
	prev = 0
	for k := 1; k <= 4*mcfg.Nodes*nah && k <= 256; k *= 2 {
		r, err := measureStreams(mcfg, fcfg, k, nah, msgind, probeData/int64(k)+msgind)
		if err != nil {
			return nil, err
		}
		rep.MsggroupCurve = append(rep.MsggroupCurve, CurvePoint{X: float64(k), Y: r})
		if r >= prev*1.05 {
			satAggs = k
			prev = r
		} else {
			break
		}
	}
	msggroup := int64(satAggs) * msgind * 4

	rep.Result = Options{Msgind: msgind, Msggroup: msggroup, Nah: nah, Memmin: memmin}
	return rep, nil
}
