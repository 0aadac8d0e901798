package bench

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/faults"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestTable1ContainsPaperRowsAndDerived(t *testing.T) {
	tab := Table1()
	var text strings.Builder
	tab.WriteText(&text)
	for _, want := range []string{
		"System Peak", "Total Concurrency", "4444", "I/O Bandwidth",
		"Memory per core", "Off-chip BW per core",
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, text.String())
		}
	}
	// The derived memory-per-core factor must be ~0.0075 (33/4444).
	found := false
	for _, row := range tab.Rows {
		if row[0] == "Memory per core (derived)" && row[3] == "0.01" {
			found = true
		}
	}
	if !found {
		t.Fatal("derived memory-per-core factor wrong or absent")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "hello")
	var txt, csv strings.Builder
	tab.WriteText(&txt)
	tab.WriteCSV(&csv)
	if !strings.Contains(txt.String(), "note: hello") {
		t.Fatalf("text: %s", txt.String())
	}
	if !strings.Contains(csv.String(), "a,bb") || !strings.Contains(csv.String(), "1,2") {
		t.Fatalf("csv: %s", csv.String())
	}
}

func TestMbAndPct(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{{2 << 20, "2MB"}, {512 << 10, "512KB"}, {100, "100B"}}
	for _, c := range cases {
		if got := mb(c.n); got != c.want {
			t.Fatalf("mb(%d)=%q, want %q", c.n, got, c.want)
		}
	}
	if got := pct(150, 100); got != "+50.0%" {
		t.Fatalf("pct=%q", got)
	}
	if got := pct(1, 0); got != "n/a" {
		t.Fatalf("pct zero base=%q", got)
	}
}

func TestRunOnceVerifiedBothStrategiesBothOps(t *testing.T) {
	// Small functional runs with real bytes verified end to end.
	mcfg := TestbedMachine(2, 4*cluster.MiB, SigmaBytes, 7)
	mcfg.CoresPerNode = 2
	fcfg := TestbedFS(7)
	fcfg.JitterMean = 0
	wl := workload.IOR{Ranks: 4, BlockSize: 64 << 10, Segments: 8}
	opts := MCCIOOptions(mcfg, fcfg, wl.TotalBytes(), 4*cluster.MiB)
	for _, s := range []iolib.Collective{
		collio.TwoPhase{CBBuffer: 4 * cluster.MiB},
		core.MCCIO{Opts: opts},
	} {
		for _, op := range []string{"write", "read"} {
			res, err := RunOnce(Spec{
				Strategy: s, Op: op, Machine: mcfg, FS: fcfg, Workload: wl, Verify: true,
			})
			if err != nil {
				t.Fatalf("%s %s: %v", s.Name(), op, err)
			}
			if res.Bytes != wl.TotalBytes() {
				t.Fatalf("%s %s: bytes %d", s.Name(), op, res.Bytes)
			}
		}
	}
}

func TestRunOnceRejectsOversizedWorkload(t *testing.T) {
	mcfg := TestbedMachine(1, 4*cluster.MiB, 0, 1)
	mcfg.CoresPerNode = 2
	wl := workload.IOR{Ranks: 64, BlockSize: 1 << 10, Segments: 1}
	_, err := RunOnce(Spec{Strategy: collio.TwoPhase{CBBuffer: 1 << 20}, Op: "write",
		Machine: mcfg, FS: TestbedFS(1), Workload: wl})
	if err == nil {
		t.Fatal("oversized workload accepted")
	}
}

// TestRunOnceRejectsOutOfRangeFaults: a fault entry naming a node,
// rank or OST the run does not have is an error naming the entry,
// returned before the engine starts — not a panic inside it, and not a
// fault counted as injected that perturbed nothing. A node of the
// machine that no rank of the workload occupies is one the run does
// not have.
func TestRunOnceRejectsOutOfRangeFaults(t *testing.T) {
	wl := workload.IOR{Ranks: 4, BlockSize: 64 << 10, Segments: 2}
	for _, c := range []struct {
		kind  string
		nodes int
		spec  faults.Spec
	}{
		{"mem_pressure", 2, faults.Spec{MemPressure: []faults.MemPressure{{Node: 99, Bytes: 1000}}}},
		{"node_failures", 2, faults.Spec{NodeFailures: []faults.NodeFailure{{Node: 99}}}},
		{"slow_links", 2, faults.Spec{SlowLinks: []faults.SlowLink{{Node: 99, Factor: 2}}}},
		{"slow_osts", 2, faults.Spec{SlowOSTs: []faults.SlowOST{{OST: 999, Factor: 2}}}},
		{"rank_failures", 2, faults.Spec{RankFailures: []faults.RankFailure{{Rank: 9999}}}},
		// 4 ranks x 2 per node occupy nodes 0 and 1 of the 4.
		{"slow_links", 4, faults.Spec{NodeFailures: []faults.NodeFailure{{Node: 3}}, SlowLinks: []faults.SlowLink{{Node: 3, Factor: 2}}}},
		{"node_failures", 4, faults.Spec{NodeFailures: []faults.NodeFailure{{Node: 2}}}},
	} {
		mcfg := TestbedMachine(c.nodes, 4*cluster.MiB, 0, 1)
		mcfg.CoresPerNode = 2
		sched, err := faults.NewSchedule(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunOnce(Spec{Strategy: collective(strategy.MCCIO, MCCIOOptions(mcfg, TestbedFS(1), wl.TotalBytes(), 4*cluster.MiB), 4*cluster.MiB),
			Op: "write", Machine: mcfg, FS: TestbedFS(1), Workload: wl, Faults: sched})
		if err == nil || !strings.Contains(err.Error(), c.kind) {
			t.Errorf("%s on %d nodes: RunOnce error %v, want one naming the entry", c.kind, c.nodes, err)
		}
		if sched.Injected() != 0 {
			t.Errorf("%s on %d nodes: %d faults injected by a run that did not start", c.kind, c.nodes, sched.Injected())
		}
	}
}

// buggyStrategy is two-phase with a bug: rank 2 panics while planning
// its write, after the other ranks have entered the collective.
type buggyStrategy struct{ collio.TwoPhase }

func (s buggyStrategy) Plan(op string, c *mpi.Comm, view datatype.List, m *trace.Metrics) (*mpi.Comm, iolib.Schedule) {
	if c.Rank() == 2 {
		c.Proc().Sleep(1e-3)
		panic("strategy bug in rank 2")
	}
	return s.TwoPhase.Plan(op, c, view, m)
}

// TestRunOnceStrategyPanicIsRecoverable: a strategy that panics inside
// one rank makes RunOnce panic on its caller's goroutine with the
// strategy's own value — so a server's recover() can answer the request
// (see pland.runSimulation) — and the ranks it strands mid-collective
// are unwound, not leaked.
func TestRunOnceStrategyPanicIsRecoverable(t *testing.T) {
	mcfg := TestbedMachine(2, 4*cluster.MiB, 0, 1)
	mcfg.CoresPerNode = 2
	spec := Spec{Strategy: buggyStrategy{collio.TwoPhase{CBBuffer: 1 << 20}}, Op: "write",
		Machine: mcfg, FS: TestbedFS(1), Workload: workload.IOR{Ranks: 4, BlockSize: 64 << 10, Segments: 2}}
	before := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		RunOnce(spec)
	}()
	if got != "strategy bug in rank 2" {
		t.Fatalf("recovered %v from RunOnce, want the strategy's panic", got)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before RunOnce, %d after its panic", before, after)
	}
}

func TestScaledDim(t *testing.T) {
	if d := scaledDim(1024, 1); d != 1024 {
		t.Fatalf("scale 1: %d", d)
	}
	if d := scaledDim(1024, 0.125); d != 512 {
		t.Fatalf("scale 1/8: %d", d)
	}
	if d := scaledDim(1024, 1e-9); d < 64 {
		t.Fatalf("floor: %d", d)
	}
	if d := scaledDim(1024, 0.3); d%8 != 0 {
		t.Fatalf("not multiple of 8: %d", d)
	}
}

func TestComparisonSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long")
	}
	// A tiny sweep exercising the whole harness path: the figures'
	// grid over two memory points.
	ms := []int64{1 << 20, 4 << 20}
	wl := workload.IOR{Ranks: 8, BlockSize: 128 << 10, Segments: 8}
	g := comparison("smoke", wl, 2, ms)
	r, err := runGrid(Options{Scale: 1, Seed: 5}, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab := g.table(r); len(r.cells) != 4*len(ms) || len(tab.Rows) != len(ms) {
		t.Fatalf("cells %d rows %d for %d memory points", len(r.cells), len(tab.Rows), len(ms))
	}
	for _, m := range ms {
		for _, op := range bothOps {
			if b, mc := r.pair(cell{mem: m, op: op}); b <= 0 || mc <= 0 {
				t.Fatalf("zero bandwidth at %s %s: two-phase %v, mccio %v", mb(m), op, b, mc)
			}
		}
	}
}

func tinyOptions() Options {
	return Options{Scale: 0.02, Seed: 7}
}

func TestAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	tab, _, err := runMode("ablation", tinyOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("%d ablation rows, want 9", len(tab.Rows))
	}
}

func TestMemoryPressureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	tab, _, err := runMode("memory", tinyOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestStripesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	tab, _, err := runMode("stripes", tinyOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

// TestFigureRunnersSmoke resolves every mode of the experiment table
// and runs it at toy scale: each must produce a non-empty table, and a
// trajectory exactly when it is one of the -json modes. The figures run
// at one memory point, through their own grid over it. The two modes
// whose rank count does not scale down (fig8 and exascale: up to 1,080
// ranks) are resolved but not run — minutes under the race
// detector for the code paths fig7 and memory already cover
// (TestExperimentsGolden runs them at scale 0.05).
func TestFigureRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiments")
	}
	o := tinyOptions().withDefaults()
	ms := []int64{4 << 20}
	figures := map[string]grid{"fig6": fig6(o, ms), "fig7": fig7(o, ms)}
	trajectories := map[string]bool{"strategies": true, "regression": true, "sweep": true}
	tooWide := map[string]bool{"fig8": true, "exascale": true}
	for _, name := range ExperimentNames() {
		sel, err := SelectExperiments(name)
		if err != nil || len(sel) != 1 || sel[0].Name != name {
			t.Fatalf("SelectExperiments(%q) = %v, %v", name, sel, err)
		}
		if sel[0].Trajectory != trajectories[name] {
			t.Errorf("%s: Trajectory %v, want %v", name, sel[0].Trajectory, trajectories[name])
		}
		if tooWide[name] {
			continue
		}
		g, ok := figures[name]
		if !ok {
			g = sel[0].grid(o)
		}
		tab, traj, err := runExperiment(o, g, sel[0].Trajectory, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tab == nil || tab.Title == "" || len(tab.Rows) == 0 {
			t.Errorf("%s: empty table %+v", name, tab)
		}
		if strings.HasPrefix(name, "fig") && len(tab.Rows) != len(ms) {
			t.Errorf("%s: %d rows for %d memory points", name, len(tab.Rows), len(ms))
		}
		if (traj != nil) != trajectories[name] || (traj != nil && len(traj.Experiments) == 0) {
			t.Errorf("%s: trajectory %+v, want one: %v", name, traj, trajectories[name])
		}
	}
	all, err := SelectExperiments("all")
	if err != nil || len(all) == 0 || len(all) >= len(ExperimentNames()) {
		t.Fatalf("all selects %d of %d modes (%v)", len(all), len(ExperimentNames()), err)
	}
	for _, e := range all {
		if !e.InAll || trajectories[e.Name] || e.Name == "chaos" {
			t.Errorf("all includes %s", e.Name)
		}
	}
	if _, err := SelectExperiments("profile"); err == nil || !strings.Contains(err.Error(), "regression") {
		t.Errorf("unknown name: error %v does not list the modes", err)
	}
}

// TestSelectExperimentsTrajectoryFlags: -json, -host and -explain are
// accepted with exactly the trajectory modes; with any other mode they
// are an error before anything runs, and with "all" they select the
// regression bench.
func TestSelectExperimentsTrajectoryFlags(t *testing.T) {
	trajectories := map[string]bool{"strategies": true, "regression": true, "sweep": true}
	for _, name := range ExperimentNames() {
		for _, flag := range []string{"-json", "-host", "-explain"} {
			sel, err := SelectExperiments(name, flag)
			if trajectories[name] {
				if err != nil || len(sel) != 1 || sel[0].Name != name {
					t.Errorf("%s %s: %v, %v; want the mode", name, flag, sel, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), flag) || !strings.Contains(err.Error(), name) {
				t.Errorf("%s %s: error %v, want one naming the flag and the mode", name, flag, err)
			}
		}
	}
	if sel, err := SelectExperiments("all", "-json", "-explain"); err != nil || len(sel) != 1 || sel[0].Name != "regression" {
		t.Errorf("all with -json -explain: %v, %v; want regression", sel, err)
	}
	if _, err := SelectExperiments("bogus", "-json"); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown mode with -json: %v", err)
	}
}
