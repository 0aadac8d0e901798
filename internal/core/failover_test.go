package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/simtime"
	"repro/internal/trace"
)

func clonePlan(p *collio.Plan) *collio.Plan {
	q := *p
	q.Domains = slices.Clone(p.Domains)
	for i := range q.Domains {
		q.Domains[i].Windows = slices.Clone(p.Domains[i].Windows)
	}
	q.Exts = slices.Clone(p.Exts)
	q.LeaderOf = slices.Clone(p.LeaderOf)
	q.LeaderSucc = slices.Clone(p.LeaderSucc)
	for i := range q.LeaderSucc {
		q.LeaderSucc[i] = slices.Clone(p.LeaderSucc[i])
	}
	return &q
}

// TestRunLeavesPlanAndRecordAlone runs the composed strategy under the
// leader fault schedule — two elected leaders die mid-collective — and
// holds the plan a group shares by pointer to its state before the
// rounds. The plan is the group's planning record's Plan, and its
// leader map and succession lines are the election's own slices (a
// handoff used to be written through that alias into the record the
// audit and /v1/plan read).
func TestRunLeavesPlanAndRecordAlone(t *testing.T) {
	spec, err := faults.LoadSpec("../../examples/chaos-leader.json")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.NewSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, 4, 4, 64*cluster.MiB, 0)
	e := simtime.NewEngine()
	w, err := mpi.NewWorld(e, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaults(sched)
	f := testFS(t, m).Open("shared")
	opts := testOpts(128<<10, 0)
	opts.TwoLayer = true
	mc := MCCIO{Opts: opts}
	w.Start(func(c *mpi.Comm) {
		view := interleavedView(c.Rank(), 16, 16, 32<<10)
		data := fillViewBuffer(view, uint64(c.Rank()))
		for _, op := range []string{"write", "read"} {
			if op == "read" {
				data = buffer.NewReal(view.TotalBytes())
			}
			var mtr trace.Metrics
			sub, sched := mc.Plan(op, c, view, &mtr)
			plan := sched.(*collio.Plan)
			if plan.LeaderOf == nil {
				t.Fatalf("%s: rank %d's group elected no leaders", op, c.Rank())
			}
			planBefore := clonePlan(plan)
			plan.Run(op, f, sub, view, data, &mtr)
			if !reflect.DeepEqual(plan, planBefore) {
				t.Errorf("%s: rank %d's group plan was written during the run", op, c.Rank())
			}
			c.Barrier()
		}
		var pos int64
		for _, seg := range view {
			if i := data.Slice(pos, seg.Len).Verify(uint64(c.Rank()), seg.Off); i != -1 {
				t.Errorf("rank %d segment %v mismatch at %d", c.Rank(), seg, i)
			}
			pos += seg.Len
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sched.Failovers() < 2 || sched.Unrecovered() != 0 {
		t.Errorf("failovers %d unrecovered %d, want both leaders handed off", sched.Failovers(), sched.Unrecovered())
	}
}
