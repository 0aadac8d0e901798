package bench

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/twolayer"
	"repro/internal/workload"
)

// sinkView is one run's facts as each sink holds them: the Result row,
// the registry snapshot and the trace.
type sinkView struct {
	res    trace.Result
	snap   metrics.Snapshot
	events []obs.Event
}

// tally sums a set of trace events.
type tally struct {
	n            int
	bytes, extra int64
	sec          float64
}

// series sums the samples of family name whose labels include the
// key/value pairs want; a histogram sample contributes its sum.
func (v *sinkView) series(name string, want ...string) float64 {
	var sum float64
	for _, f := range v.snap.Families {
		if f.Name != name {
			continue
		}
	sample:
		for _, s := range f.Samples {
			for i := 0; i < len(want); i += 2 {
				if s.Labels[want[i]] != want[i+1] {
					continue sample
				}
			}
			sum += s.Value
		}
	}
	return sum
}

// of tallies the events of kind k and phase p.
func (v *sinkView) of(k obs.Kind, p obs.Phase) tally {
	var t tally
	for _, e := range v.events {
		if e.Kind == k && e.Phase == p {
			t.n++
			t.bytes += e.Bytes
			t.extra += e.Extra
			t.sec += e.Dur()
		}
	}
	return t
}

func (v *sinkView) spans(p obs.Phase) tally    { return v.of(obs.KindSpan, p) }
func (v *sinkView) instants(p obs.Phase) tally { return v.of(obs.KindInstant, p) }

// funnelled is a write's intra-node payload as the spans show it: the
// intra-span bytes (what the rank packed) of every rank that staged
// nothing for the exchange that round — a mate, whose pieces its leader
// ships. A leader that packed anything always stages it.
func (v *sinkView) funnelled() int64 {
	type at struct{ rank, round int }
	staged := map[at]int64{}
	for _, e := range v.events {
		if e.Kind == obs.KindSpan && e.Phase == obs.PhaseExchange {
			staged[at{e.Loc.Rank, e.Loc.Round}] += e.Bytes
		}
	}
	var n int64
	for _, e := range v.events {
		if e.Kind == obs.KindSpan && e.Phase == obs.PhaseIntra && staged[at{e.Loc.Rank, e.Loc.Round}] == 0 {
			n += e.Bytes
		}
	}
	return n
}

// ledger returns the number and the sum of the node-ledger increases
// the trace's memory counters show.
func (v *sinkView) ledger() (n int, bytes int64) {
	used := map[int]int64{}
	for _, e := range v.events {
		if e.Kind != obs.KindCounter || e.Phase != obs.CounterMem {
			continue
		}
		if d := e.Bytes - used[e.Loc.Node]; d > 0 {
			n++
			bytes += d
		}
		used[e.Loc.Node] = e.Bytes
	}
	return n, bytes
}

// collective reports whether the row ran the round engine (every
// strategy but independent I/O).
func (v *sinkView) collective() bool { return v.res.Strategy != strategy.Independent }

func same[T int | int64](what string, got, want T) error {
	if got != want {
		return fmt.Errorf("%s = %d, want %d", what, got, want)
	}
	return nil
}

// near compares float sums that accumulate the same terms in different
// orders (per rank and merged, or atomically across ranks).
func near(what string, got, want float64) error {
	if math.Abs(got-want) > 1e-9*math.Max(math.Abs(want), 1e-3) {
		return fmt.Errorf("%s = %.12g, want %.12g", what, got, want)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sinkFacts states, per fact of a collective, how the Result row, the
// registry and the trace relate. Where a sink holds a fact differently
// by design the relation says exactly how; where a sink does not hold
// it, the relation says that too.
var sinkFacts = []struct {
	fact  string
	check func(v *sinkView) error
}{
	{"shuffle bytes by locality", func(v *sinkView) error {
		r := v.res
		// Exchange spans carry what each rank staged between leaders and
		// aggregators. The intra-node layer's payload — a mate's funnel
		// to its leader, a leader's fan-out to its mates — is on-node
		// shuffle in the row and the registry but on no span's bytes; a
		// write's is recoverable from the spans (funnelled), a read's
		// fan-out is not.
		layer := r.BytesShuffleIntra + r.BytesShuffleInter - v.spans(obs.PhaseExchange).bytes
		var layerErr error
		switch {
		case v.spans(obs.PhaseIntra).n == 0:
			layerErr = same("intra-node layer bytes without intra spans", layer, 0)
		case r.Op == "write":
			layerErr = same("write intra-node layer bytes", layer, v.funnelled())
		case layer < 0 || layer > r.BytesShuffleIntra:
			layerErr = fmt.Errorf("read fan-out bytes %d outside [0, intra %d]", layer, r.BytesShuffleIntra)
		}
		return firstErr(
			same("mccio_shuffle_bytes_total{intra}", int64(v.series("mccio_shuffle_bytes_total", "locality", "intra")), r.BytesShuffleIntra),
			same("mccio_shuffle_bytes_total{inter}", int64(v.series("mccio_shuffle_bytes_total", "locality", "inter")), r.BytesShuffleInter),
			layerErr)
	}},
	{"I/O bytes", func(v *sinkView) error {
		if !v.collective() {
			// Independent I/O records its view's bytes, not the sieved
			// file traffic, and has no engine spans or series.
			return firstErr(same("BytesIO", v.res.BytesIO, v.res.Bytes),
				same("io span bytes", v.spans(obs.PhaseIO).bytes, 0),
				same("mccio_round_io_bytes sum", int64(v.series("mccio_round_io_bytes")), 0))
		}
		// An io span's bytes include its window's read-modify-write.
		return firstErr(same("io span bytes", v.spans(obs.PhaseIO).bytes, v.res.BytesIO),
			same("mccio_round_io_bytes sum", int64(v.series("mccio_round_io_bytes")), v.res.BytesIO))
	}},
	{"I/O requests", func(v *sinkView) error {
		// No registry series: pfs_requests_total counts per-OST runs, and
		// includes independent and verification traffic.
		if !v.collective() {
			return same("independent IORequests", v.res.IORequests, 0)
		}
		return same("io span requests", v.spans(obs.PhaseIO).extra, v.res.IORequests)
	}},
	{"I/O seconds", func(v *sinkView) error {
		if !v.collective() {
			return near("mccio_io_seconds_total", v.series("mccio_io_seconds_total"), 0)
		}
		// A write window's I/O time runs from its start: the
		// read-modify-write and the assembly count as I/O time.
		spans := v.spans(obs.PhaseIO).sec
		if v.res.Op == "write" {
			spans += v.spans(obs.PhaseRMW).sec + v.spans(obs.PhaseAssembly).sec
		}
		return firstErr(near("IOSeconds vs spans", v.res.IOSeconds, spans),
			near("mccio_io_seconds_total", v.series("mccio_io_seconds_total"), v.res.IOSeconds))
	}},
	{"exchange seconds", func(v *sinkView) error {
		// ExchangeSeconds counts a write's assembly as the receiving end
		// of the shuffle; mccio_exchange_seconds_total excludes it.
		exch := v.spans(obs.PhaseExchange).sec
		want := exch
		if v.res.Op == "write" {
			want += v.spans(obs.PhaseAssembly).sec
		}
		return firstErr(near("ExchangeSeconds vs spans", v.res.ExchangeSeconds, want),
			near("mccio_exchange_seconds_total", v.series("mccio_exchange_seconds_total"), exch))
	}},
	{"rounds", func(v *sinkView) error {
		// Rounds is the collective's round count (the last round barrier
		// + 1); mccio_engine_rounds_total counts aggregator rounds that
		// did I/O, one per io span.
		last := -1
		for _, e := range v.events {
			if e.Kind == obs.KindSpan && e.Phase == obs.PhaseBarrier {
				last = max(last, e.Loc.Round)
			}
		}
		return firstErr(same("Rounds", v.res.Rounds, last+1),
			same("mccio_engine_rounds_total", int(v.series("mccio_engine_rounds_total")), v.spans(obs.PhaseIO).n))
	}},
	{"aggregators", func(v *sinkView) error {
		// No registry series. Every aggregator charges its buffer to its
		// node's ledger once; fault pressure is the only other charge.
		var bufs int64
		for _, b := range v.res.AggBufferBytes {
			bufs += b
		}
		pressure := v.instants(obs.EventFaultMem)
		n, charged := v.ledger()
		err := firstErr(same("AggBufferBytes entries", len(v.res.AggBufferBytes), v.res.Aggregators),
			same("ledger charges", n, v.res.Aggregators+pressure.n),
			same("ledger bytes charged", charged, bufs+pressure.bytes))
		if v.res.Strategy == strategy.MCCIO {
			err = firstErr(err, same("place instants", v.instants(obs.EventPlace).n, v.res.Aggregators))
		}
		return err
	}},
	{"groups", func(v *sinkView) error {
		div := v.instants(obs.EventGroupDivision)
		reg := int(v.series("mccio_plan_groups_total"))
		switch v.res.Strategy {
		case strategy.MCCIO:
			return firstErr(same("group-division instants", div.n, 1),
				same("group-division groups", int(div.extra), v.res.Groups),
				same("mccio_plan_groups_total", reg, v.res.Groups))
		case strategy.Independent:
			return firstErr(same("Groups", v.res.Groups, 0), same("group-division instants", div.n, 0), same("mccio_plan_groups_total", reg, 0))
		}
		return firstErr(same("Groups", v.res.Groups, 1), same("group-division instants", div.n, 0), same("mccio_plan_groups_total", reg, 0))
	}},
	{"leaders", func(v *sinkView) error {
		// Only an election whose leaders lead the plan (some node hosts
		// several ranks) is audited, so every leader instant counts in
		// the row; with one rank per node there are none.
		n := v.instants(obs.EventLeader).n
		return firstErr(same("Leaders", v.res.Leaders, n),
			same("twolayer_plan_leaders_total", int(v.series("twolayer_plan_leaders_total")), n))
	}},
	{"remerges", func(v *sinkView) error {
		// Planner remerges (one instant per group, Extra = its count)
		// plus failover remerges (one instant each).
		planned, failed := v.instants(obs.EventRemerge).extra, v.instants(obs.EventFailover).n
		return firstErr(same("Remerges", int64(v.res.Remerges), planned+int64(failed)),
			same("mccio_plan_remerges_total", int64(v.series("mccio_plan_remerges_total")), planned),
			same("failover_remerges_total", int(v.series("failover_remerges_total")), failed))
	}},
}

// multiGroupSpec is `mccio-sim -procs 480 -segments 2 -block 1MB -mem
// 4MB` (with -twolayer when twoLayer): 17 aggregation groups, most of
// which remerge.
func multiGroupSpec(op string, twoLayer bool) Spec {
	const procs, cores, mem = 480, 12, 4 * cluster.MiB
	wl := workload.IOR{Ranks: procs, BlockSize: cluster.MiB, Segments: 2, TransferSize: cluster.MiB}
	mcfg := TestbedMachine(procs/cores, mem, 50*cluster.MB, 42)
	mcfg.CoresPerNode = cores
	fcfg := TestbedFS(42)
	opts := MCCIOOptions(mcfg, fcfg, wl.TotalBytes(), mem)
	opts.TwoLayer = twoLayer
	return Spec{Strategy: core.MCCIO{Opts: opts}, Op: op, Machine: mcfg, FS: fcfg, Workload: wl}
}

// oneRankPerNodeSpec is the standalone two-layer strategy on 4 nodes ×
// 1 core: every node's election is trivial and the plan runs the flat
// exchange.
func oneRankPerNodeSpec(op string) Spec {
	const nodes, mem = 4, 8 * cluster.MiB
	mcfg := TestbedMachine(nodes, mem, 50*cluster.MB, 42)
	mcfg.CoresPerNode = 1
	wl := workload.IOR{Ranks: nodes, BlockSize: 256 << 10, Segments: 4, TransferSize: 256 << 10}
	return Spec{Strategy: twolayer.Strategy{CBBuffer: mem}, Op: op, Machine: mcfg, FS: TestbedFS(42), Workload: wl}
}

// TestSinksAgree runs the regression, strategies and chaos golden grids,
// the multi-group run with and without the two-layer exchange, and the
// standalone two-layer strategy at one rank per node, each with a fresh
// tracer and registry, and checks every fact of sinkFacts on every row.
func TestSinksAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	type row struct {
		key, fault string
		spec       Spec
	}
	var rows []row
	for _, g := range []struct {
		golden string
		grid   func(Options) grid
	}{
		{"regression_seed_engine.json", regression},
		{"strategies_seed_engine.json", strategies},
	} {
		gf, _ := readGolden(t, g.golden)
		o := Options{Scale: gf.Scale, Seed: gf.Seed}
		gr := g.grid(o)
		for i, c := range gr.cells() {
			rows = append(rows, row{key: gr.key(c), spec: gr.spec(o, i, c)})
		}
	}
	for _, r := range chaosGrid() {
		rows = append(rows, row{key: r.key, fault: r.fault, spec: r.spec})
	}
	for _, op := range []string{"write", "read"} {
		for _, tl := range []bool{false, true} {
			rows = append(rows, row{key: fmt.Sprintf("multi-group/twolayer=%v/%s", tl, op), spec: multiGroupSpec(op, tl)})
		}
		rows = append(rows, row{key: "two-layer/one-rank-per-node/" + op, spec: oneRankPerNodeSpec(op)})
	}
	views, err := sweep.Sweep[*sinkView]{Workers: 4, Label: "sinks"}.Run(context.Background(), len(rows), func(_ context.Context, i int) (*sinkView, error) {
		spec := rows[i].spec
		spec.Tracer, spec.Metrics = obs.NewTracer(), metrics.New()
		if rows[i].fault != "" {
			sched, err := loadSchedule(rows[i].fault)
			if err != nil {
				return nil, err
			}
			spec.Faults = sched
		}
		res, err := RunOnce(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rows[i].key, err)
		}
		return &sinkView{res: res, snap: spec.Metrics.Snapshot(), events: spec.Tracer.Events()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		for _, f := range sinkFacts {
			if err := f.check(v); err != nil {
				t.Errorf("%s: %s: %v", rows[i].key, f.fact, err)
			}
		}
	}
}

// TestRemergesAddUpAcrossGroups: a run whose groups each remerge
// reports the sum of their remerges — in the row, in
// mccio_plan_remerges_total, and as the static plan (Inspect) has them.
func TestRemergesAddUpAcrossGroups(t *testing.T) {
	spec := multiGroupSpec("write", false)
	spec.Metrics = metrics.New()
	res, err := RunOnce(spec)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := cluster.New(spec.Machine)
	if err != nil {
		t.Fatal(err)
	}
	views := make([]datatype.List, spec.Workload.NumRanks())
	for r := range views {
		views[r] = spec.Workload.View(r)
	}
	ir, err := spec.Strategy.(core.MCCIO).Inspect(machine, views)
	if err != nil {
		t.Fatal(err)
	}
	planned, remerging := 0, 0
	for _, gp := range ir.Plans {
		planned += gp.Remerges
		if gp.Remerges > 0 {
			remerging++
		}
	}
	if remerging < 2 {
		t.Fatalf("%d of %d groups remerge; the test needs two or more", remerging, len(ir.Plans))
	}
	v := sinkView{snap: spec.Metrics.Snapshot()}
	if got := int(v.series("mccio_plan_remerges_total")); res.Remerges != planned || got != planned {
		t.Fatalf("remerges: row %d, mccio_plan_remerges_total %d, Inspect %d over %d groups", res.Remerges, got, planned, len(ir.Plans))
	}
}
