package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/iolib"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/twolayer"
)

var updateChaosGolden = flag.Bool("update-chaos-golden", false,
	"rewrite testdata/chaos_seed_engine.json from the current engine")

// chaosGoldenEvent is one fault/failover instant in a compact, stable
// encoding.
type chaosGoldenEvent struct {
	Phase string  `json:"phase"`
	T     float64 `json:"t"`
	Rank  int     `json:"rank"`
	Node  int     `json:"node"`
	Group int     `json:"group"`
	Round int     `json:"round"`
	Bytes int64   `json:"bytes"`
	Extra int64   `json:"extra"`
}

// chaosGoldenRow is one faulted run: the Result columns, the schedule's
// tallies, and the run's fault/failover event stream in record order.
type chaosGoldenRow struct {
	BenchRow
	Injected    int64              `json:"injected"`
	Failovers   int64              `json:"failovers"`
	Unrecovered int64              `json:"unrecovered"`
	Dropped     int64              `json:"dropped"`
	Events      []chaosGoldenEvent `json:"events"`
}

// chaosRow is one faulted run of the chaos grid: its key, the fault
// schedule's example file, and the run without its schedule (each run
// loads a fresh one).
type chaosRow struct {
	key, fault string
	spec       Spec
}

// chaosGrid is every round-engine strategy, write and read, with
// verified bytes under both example fault schedules: examples/chaos.json
// (node failure, memory pressure, slow OST and link, drops and delays —
// the failover-by-remerge path) and examples/chaos-leader.json (two
// elected leaders die mid-collective — the leadership-handoff path). 4
// nodes x 4 ranks and a nominal 1 MiB buffer (less where the memory
// variance bites) give every domain eight or more rounds, so each
// scheduled fault lands while windows remain.
func chaosGrid() []chaosRow {
	const (
		nodes, perNode = 4, 4
		mem            = 1 * cluster.MiB
		// Seed 2 draws a platform where the memory-conscious placement
		// puts aggregators on the node chaos.json kills, so the mccio rows
		// fail over too (most seeds leave that node without one).
		seed = 2
	)
	wl := iorWorkload(nodes*perNode, 1.0/16)
	fcfg := TestbedFS(seed)
	mcfg := TestbedMachine(nodes, mem, SigmaBytes, seed)
	mcfg.CoresPerNode = perNode
	mccOpts := MCCIOOptions(mcfg, fcfg, wl.TotalBytes(), mem)
	mccTL := mccOpts
	mccTL.TwoLayer = true

	var grid []chaosRow
	for _, fault := range []string{"chaos", "chaos-leader"} {
		for _, e := range []struct {
			name string
			s    iolib.Collective
		}{
			{"two-phase", collio.TwoPhase{CBBuffer: mem}},
			{"two-layer", twolayer.Strategy{CBBuffer: mem}},
			{"mccio", core.MCCIO{Opts: mccOpts}},
			{"mccio+two-layer", core.MCCIO{Opts: mccTL}},
		} {
			for _, op := range []string{"write", "read"} {
				grid = append(grid, chaosRow{
					key:   fmt.Sprintf("%s/%s/%s", fault, e.name, op),
					fault: fault,
					spec:  Spec{Strategy: e.s, Op: op, Machine: mcfg, FS: fcfg, Workload: wl, Verify: true},
				})
			}
		}
	}
	return grid
}

// loadSchedule is a fresh schedule of the named example fault file.
func loadSchedule(fault string) (*faults.Schedule, error) {
	fspec, err := faults.LoadSpec(filepath.Join("..", "..", "examples", fault+".json"))
	if err != nil {
		return nil, err
	}
	return faults.NewSchedule(fspec)
}

// runChaosGolden runs the chaos grid and encodes each row's result,
// the schedule's tallies and its fault/failover events.
func runChaosGolden(t *testing.T, parallel int) []byte {
	t.Helper()
	grid := chaosGrid()
	runner := sweep.Sweep[chaosGoldenRow]{Workers: parallel, Label: "chaos-golden"}
	rows, err := runner.Run(context.Background(), len(grid), func(_ context.Context, i int) (chaosGoldenRow, error) {
		g := grid[i]
		sched, err := loadSchedule(g.fault)
		if err != nil {
			return chaosGoldenRow{}, err
		}
		tr := obs.NewTracer()
		spec := g.spec
		spec.Tracer, spec.Faults = tr, sched
		res, err := RunOnce(spec)
		if err != nil {
			return chaosGoldenRow{}, fmt.Errorf("%s: %w", g.key, err)
		}
		row := chaosGoldenRow{
			BenchRow: RowFromResult(g.key, res),
			Injected: sched.Injected(), Failovers: sched.Failovers(),
			Unrecovered: sched.Unrecovered(), Dropped: sched.Dropped(),
		}
		for _, e := range tr.Events() {
			switch e.Phase.Category() {
			case "fault", "failover":
				row.Events = append(row.Events, chaosGoldenEvent{
					Phase: string(e.Phase), T: e.T0,
					Rank: e.Loc.Rank, Node: e.Loc.Node, Group: e.Loc.Group, Round: e.Loc.Round,
					Bytes: e.Bytes, Extra: e.Extra,
				})
			}
		}
		return row, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenChaosSeedEngine locks the faulted trajectories — fault
// injection, failover-by-remerge, leader handoff and the request
// re-exchange that follows them — of all four round-engine strategies
// to the engine that wrote the golden, serially and through the worker
// pool. The other seed-engine goldens never run a fault schedule.
func TestGoldenChaosSeedEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	path := filepath.Join("testdata", "chaos_seed_engine.json")
	serial := runChaosGolden(t, 1)
	if *updateChaosGolden {
		if err := os.WriteFile(path, serial, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 8} {
		have := serial
		if parallel != 1 {
			have = runChaosGolden(t, parallel)
		}
		if !bytes.Equal(have, want) {
			t.Fatalf("faulted trajectory diverged from %s (parallel=%d); rerun with -update-chaos-golden and diff the file", path, parallel)
		}
	}
}
