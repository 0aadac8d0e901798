package bench

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// Experiment is one `mccio-bench -experiment` mode. The table below is
// the only list of them: the flag help, the unknown-name error, the
// smoke test and README's CLI reference are all derived from it.
type Experiment struct {
	// Name is what -experiment selects the mode by.
	Name string
	// InAll marks the modes `-experiment all` runs: the paper's table
	// and figures plus the ablations. The rest are run by name — chaos
	// verifies every byte and dominates the sweep time; strategies,
	// regression and sweep are fixed-seed trajectories whose output is
	// a golden, not a figure.
	InAll bool
	// Trajectory marks the modes whose rows persist as a BenchFile:
	// Run returns one, and mccio-bench's -json, -host and -explain apply
	// to these modes and to no other.
	Trajectory bool
	// grid describes the mode at o's scale and seed.
	grid func(o Options) grid
}

var experiments = []Experiment{
	{"table1", true, false, func(Options) grid { return grid{table: func(*gridRun) *Table { return Table1() }} }},
	{"fig6", true, false, paper(fig6)},
	{"fig7", true, false, paper(fig7)},
	{"fig8", true, false, paper(fig8)},
	{"ablation", true, false, ablation},
	{"memory", true, false, memoryPressure},
	{"exascale", true, false, exascale},
	{"stripes", true, false, stripeSweep},
	{"phases", true, false, phaseBreakdown},
	{"strategies", false, true, strategies},
	{"regression", false, true, regression},
	{"chaos", false, false, chaos},
	{"sweep", false, true, sweepGrid},
}

// paper runs a figure over the paper's memory sweep.
func paper(fig func(Options, []int64) grid) func(Options) grid {
	return func(o Options) grid { return fig(o, paperMems()) }
}

// Run executes the mode: its grid through the one runner, then its
// table. The BenchFile is non-nil exactly for the trajectory modes.
// reg, when non-nil, absorbs every row's metrics.
func (e Experiment) Run(o Options, reg *metrics.Registry) (*Table, *BenchFile, error) {
	o = o.withDefaults()
	return runExperiment(o, e.grid(o), e.Trajectory, reg)
}

// runExperiment runs g and renders its table, and its trajectory when
// asked.
func runExperiment(o Options, g grid, trajectory bool, reg *metrics.Registry) (*Table, *BenchFile, error) {
	r, err := runGrid(o, g, reg)
	if err != nil {
		return nil, nil, err
	}
	var b *BenchFile
	if trajectory {
		b = r.benchFile()
	}
	return g.table(r), b, nil
}

// ExperimentNames lists every mode in table order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// SelectExperiments resolves an -experiment argument: one mode by
// name, or "all" for every mode marked InAll. An unknown name is an
// error naming the allowed ones. trajectoryFlags names the options in
// use that only a trajectory mode records (-json, -host, -explain):
// with any of them, "all" means regression and a mode that is not a
// trajectory is an error.
func SelectExperiments(name string, trajectoryFlags ...string) ([]Experiment, error) {
	if name == "all" && len(trajectoryFlags) > 0 {
		name = "regression"
	}
	var traj []string
	var sel []Experiment
	for _, e := range experiments {
		if e.Trajectory {
			traj = append(traj, e.Name)
		}
		if e.Name == name || (name == "all" && e.InAll) {
			sel = append(sel, e)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (want %s | all)", name, strings.Join(ExperimentNames(), " | "))
	}
	if len(trajectoryFlags) > 0 && !sel[0].Trajectory {
		return nil, fmt.Errorf("%s records only the trajectory experiments (%s), not %s",
			strings.Join(trajectoryFlags, ", "), strings.Join(traj, " | "), name)
	}
	return sel, nil
}
