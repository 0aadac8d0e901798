package bench

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// An experiment is a grid: a base cell, axes that expand it into rows,
// and the rules that turn a row into a run. runGrid expands it, runs
// every row through one worker pool, and hands the rows to the grid's
// table, which picks them by axis value (gridRun.at).

// strat is one value of a strategy axis: a strategy constant (built
// through adio.New), the label rows and keys call it by, and an
// optional mutator of the MCCIO tunables derived for the row's
// platform (the ablation rows, mccio+two-layer).
type strat struct {
	label, name string
	tune        func(*core.Options)
}

// cell is one row's axis values. Cells are compared by value, and a
// strat by identity: a table asks for a row with the same *strat its
// grid's axis holds.
type cell struct {
	strat   *strat
	op      string
	mem     int64   // nominal aggregation memory per node, bytes
	nodes   int     // testbed nodes
	perNode int     // ranks per node; 0 keeps the testbed's 12
	stripe  int64   // stripe unit, bytes; 0 keeps the testbed's
	rate    float64 // message drop rate (chaos); 0 is fault-free
	v       int     // seed variant
}

// over fills c's zero fields from base, so a table names only the axes
// its grid sweeps.
func (c cell) over(base cell) cell {
	return cell{
		strat:   cmp.Or(c.strat, base.strat),
		op:      cmp.Or(c.op, base.op),
		mem:     cmp.Or(c.mem, base.mem),
		nodes:   cmp.Or(c.nodes, base.nodes),
		perNode: cmp.Or(c.perNode, base.perNode),
		stripe:  cmp.Or(c.stripe, base.stripe),
		rate:    cmp.Or(c.rate, base.rate),
		v:       cmp.Or(c.v, base.v),
	}
}

// axis is one dimension of a grid: it expands a cell into one cell per
// value, in value order.
type axis func(c cell) []cell

func along[T any](vals []T, set func(*cell, T)) axis {
	return func(c cell) []cell {
		out := make([]cell, len(vals))
		for i, v := range vals {
			out[i] = c
			set(&out[i], v)
		}
		return out
	}
}

func strats(ss ...*strat) axis  { return along(ss, func(c *cell, s *strat) { c.strat = s }) }
func ops(names ...string) axis  { return along(names, func(c *cell, op string) { c.op = op }) }
func mems(ms ...int64) axis     { return along(ms, func(c *cell, m int64) { c.mem = m }) }
func nodeCounts(ns ...int) axis { return along(ns, func(c *cell, n int) { c.nodes = n }) }
func stripes(us ...int64) axis  { return along(us, func(c *cell, u int64) { c.stripe = u }) }
func dropRates(rs ...float64) axis {
	return along(rs, func(c *cell, r float64) { c.rate = r })
}
func variants(n int) axis {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = i
	}
	return along(vs, func(c *cell, v int) { c.v = v })
}

// named is the strategy value labelled by its own name.
func named(name string) *strat { return &strat{label: name, name: name} }

// The values most grids sweep: the paper's two strategies, both ops.
var (
	twoPhase = named(strategy.TwoPhase)
	mccio    = named(strategy.MCCIO)
	baseline = []*strat{twoPhase, mccio}
	bothOps  = []string{"write", "read"}
)

// grid is one experiment as a value.
type grid struct {
	label string // progress-line prefix and error context
	base  cell   // the values of every axis the grid does not sweep
	axes  []axis // outermost first; a grid without axes runs nothing
	// workload is the row's access pattern.
	workload func(c cell) workload.Workload
	// key names the row in progress lines, errors and trajectories.
	key func(c cell) string
	// seed is row i's platform seed; nil runs every row on o.Seed.
	seed func(row int) uint64
	// faults is the row's fault spec; nil (or a nil spec) runs it clean.
	faults func(c cell) *faults.Spec
	verify bool // every row verifies its bytes
	phases bool // every row is traced and folded to a phase summary
	// table renders the run.
	table func(r *gridRun) *Table
}

// cells expands the grid: the product of its axes, outermost first.
func (g grid) cells() []cell {
	var cells []cell
	if len(g.axes) > 0 {
		cells = []cell{g.base}
	}
	for _, ax := range g.axes {
		var next []cell
		for _, c := range cells {
			next = append(next, ax(c)...)
		}
		cells = next
	}
	return cells
}

// spec builds row i's run: the testbed machine and file system at the
// row's seed, the workload, and the cell's strategy with the MCCIO
// tunables derived for that platform (then mutated by the strategy's
// tune).
func (g grid) spec(o Options, i int, c cell) Spec {
	seed := o.Seed
	if g.seed != nil {
		seed = g.seed(i)
	}
	mcfg := TestbedMachine(c.nodes, c.mem, SigmaBytes, seed)
	if c.perNode > 0 {
		mcfg.CoresPerNode = c.perNode
	}
	fcfg := TestbedFS(seed)
	if c.stripe > 0 {
		fcfg.StripeUnit = c.stripe
	}
	wl := g.workload(c)
	opts := MCCIOOptions(mcfg, fcfg, wl.TotalBytes(), c.mem)
	if c.strat.tune != nil {
		c.strat.tune(&opts)
	}
	return Spec{Strategy: collective(c.strat.name, opts, c.mem), Op: c.op,
		Machine: mcfg, FS: fcfg, Workload: wl, Verify: g.verify}
}

// rowOut is what one row left behind: its result, and what its own
// sinks recorded. wallNs and allocs (heap objects, the
// runtime.MemStats.Mallocs delta) are the host cost of the row's
// simulation, sampled only under Options.HostMetrics.
type rowOut struct {
	res                   trace.Result
	wallNs, allocs        int64
	inj, fo, unrec, drops int64 // the row's fault schedule's tallies
	sum                   *obs.Summary
	events                []explain.Event
	snap                  metrics.Snapshot
}

// gridRun is a run grid: its cells, keys and row outputs, slot per row.
type gridRun struct {
	o     Options
	g     grid
	cells []cell
	keys  []string
	outs  []rowOut
	index map[cell]int
	// metrics is the per-row registries merged in row order; nil when
	// the run fed no registry.
	metrics *metrics.Snapshot
}

// runGrid runs every row of g through the sweep worker pool — o.Parallel
// at a time, GOMAXPROCS when 0, strictly serial when 1 — and returns
// the outputs slot-per-row. Each row builds its own sinks inside the
// worker: a metrics registry when reg is non-nil, a decision recorder
// (opened with the row key) under o.Explain or g.phases, a tracer under
// g.phases, and its fault schedule (exactly-once state lives in it).
// Rows share nothing, and the per-row registries and audits are folded
// in row order afterwards — into reg and o.Explain — so every output
// is byte-identical at any worker count.
//
// o.HostMetrics forces the pool serial (the allocation counter is
// process-global; a concurrent sibling's garbage would land in this
// row's count) and samples each row's host cost.
func runGrid(o Options, g grid, reg *metrics.Registry) (*gridRun, error) {
	r := &gridRun{o: o, g: g, cells: g.cells(), index: map[cell]int{}}
	r.keys = make([]string, len(r.cells))
	for i, c := range r.cells {
		r.keys[i] = g.key(c)
		r.index[c] = i
	}
	workers := o.Parallel
	if o.HostMetrics {
		workers = 1
	}
	pool := sweep.Sweep[rowOut]{
		Workers:  workers,
		Progress: o.Progress,
		Label:    g.label,
		Describe: func(i int, out rowOut) string {
			s := r.keys[i] + ": " + out.res.String()
			if out.inj > 0 {
				s += fmt.Sprintf(" (injected=%d failovers=%d)", out.inj, out.fo)
			}
			return s
		},
	}
	outs, err := pool.Run(context.Background(), len(r.cells), func(_ context.Context, i int) (rowOut, error) {
		out, err := g.run(o, i, r.cells[i], r.keys[i], reg != nil)
		if err != nil {
			return rowOut{}, fmt.Errorf("%s: %w", r.keys[i], err)
		}
		return out, nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", g.label, err)
	}
	r.outs = outs
	if reg != nil {
		snaps := make([]metrics.Snapshot, len(outs))
		for i, out := range outs {
			snaps[i] = out.snap
		}
		merged := metrics.MergeSnapshots(snaps...)
		r.metrics = &merged
		reg.Absorb(merged)
	}
	for _, out := range outs {
		o.Explain.Append(out.events)
	}
	return r, nil
}

// run executes one row with its own sinks.
func (g grid) run(o Options, i int, c cell, key string, metered bool) (rowOut, error) {
	spec := g.spec(o, i, c)
	if metered {
		spec.Metrics = metrics.New()
	}
	if o.Explain != nil || g.phases {
		spec.Explain = explain.NewRecorder()
		spec.Explain.Run(key)
	}
	if g.faults != nil {
		if fs := g.faults(c); fs != nil {
			sched, err := faults.NewSchedule(*fs)
			if err != nil {
				return rowOut{}, err
			}
			spec.Faults = sched
		}
	}
	var out rowOut
	var m0 runtime.MemStats
	var t0 time.Time
	if o.HostMetrics {
		runtime.ReadMemStats(&m0)
		t0 = time.Now()
	}
	var err error
	if g.phases {
		out.res, out.sum, err = RunOncePhases(spec)
	} else {
		out.res, err = RunOnce(spec)
	}
	if err != nil {
		return rowOut{}, err
	}
	if o.HostMetrics {
		out.wallNs = time.Since(t0).Nanoseconds()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		out.allocs = int64(m1.Mallocs - m0.Mallocs)
	}
	s := spec.Faults
	out.inj, out.fo, out.unrec, out.drops = s.Injected(), s.Failovers(), s.Unrecovered(), s.Dropped()
	out.events = spec.Explain.Events()
	if metered {
		out.snap = spec.Metrics.Snapshot()
	}
	return out, nil
}

// at is the row at the cell whose swept axes hold want's values (want's
// zero fields take the grid's base values).
func (r *gridRun) at(want cell) rowOut {
	i, ok := r.index[want.over(r.g.base)]
	if !ok {
		panic(fmt.Sprintf("bench: %s has no cell %+v", r.g.label, want))
	}
	return r.outs[i]
}

// pair is the two-phase and the mccio bandwidth at cell at.
func (r *gridRun) pair(at cell) (base, mcc float64) {
	at.strat = twoPhase
	base = r.at(at).res.BandwidthMBps()
	at.strat = mccio
	return base, r.at(at).res.BandwidthMBps()
}

// versus is the two-phase vs mccio columns at one point of a grid's
// other axes: each strategy's bandwidth and mccio's gain, per op.
func (r *gridRun) versus(at cell, ops ...string) []string {
	var cols []string
	for _, op := range ops {
		at.op = op
		b, m := r.pair(at)
		cols = append(cols, fmt.Sprintf("%.1f", b), fmt.Sprintf("%.1f", m), pct(m, b))
	}
	return cols
}

// benchFile is the run as a persisted trajectory: one row per cell in
// grid order (with host columns when sampled) and the merged metrics.
func (r *gridRun) benchFile() *BenchFile {
	b := &BenchFile{Schema: BenchSchemaVersion, Scale: r.o.Scale, Seed: r.o.Seed, Metrics: r.metrics}
	for i, out := range r.outs {
		row := RowFromResult(r.keys[i], out.res)
		row.HostNsOp, row.HostAllocsOp = out.wallNs, out.allocs
		b.Experiments = append(b.Experiments, row)
	}
	return b
}
