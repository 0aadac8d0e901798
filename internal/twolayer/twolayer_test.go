// Package twolayer_test exercises the two-layer strategy end to end
// through the bench harness. It lives in an external test package so it
// can import bench (which itself imports twolayer) without a cycle.
package twolayer_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/datatype"
	"repro/internal/explain"
	"repro/internal/faults"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/twolayer"
	"repro/internal/workload"
)

const testMem = 16 * cluster.MiB

// testMachine builds a nodes x perNode testbed with the bench suite's
// memory-variance parameters, so results here match the strategies
// experiment's regime.
func testMachine(nodes, perNode int) cluster.Config {
	cfg := cluster.TestbedConfig(nodes)
	cfg.CoresPerNode = perNode
	cfg.MemPerNode = testMem
	cfg.MemSigma = float64(bench.SigmaBytes) / float64(testMem)
	cfg.MemFloor = testMem / 4
	cfg.Seed = 42
	return cfg
}

func testFS() pfs.Config {
	cfg := pfs.DefaultConfig()
	cfg.JitterMean = 12e-3
	cfg.Seed = 42
	return cfg
}

// nodeShared builds the replicated-input pattern the two-layer exchange
// targets: node n owns tiles {t : t mod nodes == n} and every rank on
// node n requests all of them — shared within a node, disjoint across
// nodes.
func nodeShared(nodes, perNode, tilesPerNode int, tileBytes int64) workload.Explicit {
	views := make([]datatype.List, nodes*perNode)
	for n := 0; n < nodes; n++ {
		var segs []datatype.Segment
		for t := 0; t < tilesPerNode; t++ {
			tile := int64(t*nodes + n)
			segs = append(segs, datatype.Segment{Off: tile * tileBytes, Len: tileBytes})
		}
		view := datatype.Normalize(segs)
		for c := 0; c < perNode; c++ {
			views[n*perNode+c] = view
		}
	}
	return workload.Explicit{
		Label: fmt.Sprintf("node-shared %dx%d", nodes, perNode),
		Views: views,
	}
}

// TestWriteIntraExceedsInter is the write-side claim: with several
// ranks per node, mates funnel their requests to the elected leader
// over the memory bus, so strictly more shuffle bytes stay on-node than
// cross the fabric.
func TestWriteIntraExceedsInter(t *testing.T) {
	res, err := bench.RunOnce(bench.Spec{
		Strategy: twolayer.Strategy{CBBuffer: testMem},
		Op:       "write",
		Machine:  testMachine(4, 4),
		FS:       testFS(),
		Workload: workload.IOR{Ranks: 16, BlockSize: 64 << 10, Segments: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaders != 4 {
		t.Fatalf("leaders = %d, want one per node (4)", res.Leaders)
	}
	if res.BytesShuffleIntra <= res.BytesShuffleInter {
		t.Fatalf("intra %d <= inter %d: the funnel should dominate the shuffle",
			res.BytesShuffleIntra, res.BytesShuffleInter)
	}
	if res.BytesShuffleInter <= 0 {
		t.Fatalf("inter = %d, want > 0 (remote domains still need their data)", res.BytesShuffleInter)
	}
}

// TestReadDedupReducesInterBytes is the read-side claim: on a
// node-shared pattern the leader fetches each shared range across the
// fabric once and fans it out locally, so two-layer must move strictly
// fewer inter-node bytes than the flat two-phase shuffle.
func TestReadDedupReducesInterBytes(t *testing.T) {
	mcfg := testMachine(4, 4)
	wl := nodeShared(4, 4, 6, 64<<10)
	run := func(s iolib.Collective) bench.BenchRow {
		t.Helper()
		res, err := bench.RunOnce(bench.Spec{Strategy: s, Op: "read", Machine: mcfg, FS: testFS(), Workload: wl})
		if err != nil {
			t.Fatal(err)
		}
		return bench.RowFromResult(s.Name(), res)
	}
	two := run(twolayer.Strategy{CBBuffer: testMem})
	flat := run(collio.TwoPhase{CBBuffer: testMem})
	if two.Leaders != 4 {
		t.Fatalf("two-layer leaders = %d, want 4", two.Leaders)
	}
	if two.ShuffleInter <= 0 {
		t.Fatalf("two-layer inter = %d, want > 0", two.ShuffleInter)
	}
	if two.ShuffleInter >= flat.ShuffleInter {
		t.Fatalf("two-layer inter %d >= two-phase inter %d: dedup fan-out should cut fabric traffic",
			two.ShuffleInter, flat.ShuffleInter)
	}
}

// TestSingleRankPerNodeMatchesTwoPhase pins the degenerate case: with
// one rank per node there is nothing to aggregate intra-node, the
// election reports MultiRank=false, and the two-layer trajectory must
// be byte-identical to plain two-phase — same virtual times, same
// traffic, zero leaders.
func TestSingleRankPerNodeMatchesTwoPhase(t *testing.T) {
	mcfg := testMachine(8, 1)
	wl := workload.IOR{Ranks: 8, BlockSize: 128 << 10, Segments: 4}
	for _, op := range []string{"write", "read"} {
		spec := bench.Spec{Op: op, Machine: mcfg, FS: testFS(), Workload: wl}
		spec.Strategy = twolayer.Strategy{CBBuffer: testMem}
		a, err := bench.RunOnce(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Strategy = collio.TwoPhase{CBBuffer: testMem}
		b, err := bench.RunOnce(spec)
		if err != nil {
			t.Fatal(err)
		}
		if a.Leaders != 0 {
			t.Fatalf("%s: leaders = %d, want 0 with one rank per node", op, a.Leaders)
		}
		ra := bench.RowFromResult("row", a)
		rb := bench.RowFromResult("row", b)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%s: two-layer diverged from two-phase on a 1-rank-per-node machine:\ntwo-layer: %+v\ntwo-phase: %+v", op, ra, rb)
		}
	}
}

// TestVerifiedDataIntegrity runs the strategy with real payloads on a
// disjoint workload and checks every byte: written data must read back
// exactly, read data must match what was seeded.
func TestVerifiedDataIntegrity(t *testing.T) {
	for _, op := range []string{"write", "read"} {
		_, err := bench.RunOnce(bench.Spec{
			Strategy: twolayer.Strategy{CBBuffer: testMem},
			Op:       op,
			Machine:  testMachine(4, 4),
			FS:       testFS(),
			Workload: workload.IOR{Ranks: 16, BlockSize: 32 << 10, Segments: 3},
			Verify:   true,
		})
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
}

// TestExplainRecordsElections runs the strategy with a decision
// recorder attached and checks the audit: one KindLeader event per
// node, each naming its losing mates.
func TestExplainRecordsElections(t *testing.T) {
	rec := explain.NewRecorder()
	_, err := bench.RunOnce(bench.Spec{
		Strategy: twolayer.Strategy{CBBuffer: testMem},
		Op:       "write",
		Machine:  testMachine(4, 4),
		FS:       testFS(),
		Workload: workload.IOR{Ranks: 16, BlockSize: 32 << 10, Segments: 2},
		Explain:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	if s := explain.Summarize(events); s.Leaders != 4 {
		t.Fatalf("summary leaders = %d, want 4", s.Leaders)
	}
	for _, e := range events {
		if e.Kind != explain.KindLeader {
			continue
		}
		if len(e.RunnersUp) != 3 {
			t.Fatalf("leader event %+v: runners-up = %d, want 3 on a 4-rank node", e, len(e.RunnersUp))
		}
	}
}

// TestLeaderFailover fails an elected leader at round 0 and checks the
// runtime handoff: the node's next-best rank takes over, the run
// records the failover, and the written data still verifies.
func TestLeaderFailover(t *testing.T) {
	// Equal spans and shared node memory tie the election to the lowest
	// rank, so rank 0 leads node 0 and its injected failure must hand
	// leadership to a mate.
	sched, err := faults.NewSchedule(faults.Spec{
		Seed:         7,
		RankFailures: []faults.RankFailure{{Rank: 0, Round: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.RunOnce(bench.Spec{
		Strategy: twolayer.Strategy{CBBuffer: testMem},
		Op:       "write",
		Machine:  testMachine(4, 4),
		FS:       testFS(),
		Workload: workload.IOR{Ranks: 16, BlockSize: 32 << 10, Segments: 3},
		Verify:   true,
		Faults:   sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaders != 4 {
		t.Fatalf("leaders = %d, want 4 (election precedes the failure)", res.Leaders)
	}
	if sched.Failovers() < 1 {
		t.Fatalf("failovers = %d, want at least one leadership handoff", sched.Failovers())
	}
	if sched.Unrecovered() != 0 {
		t.Fatalf("unrecovered = %d, want 0 (three surviving mates on the node)", sched.Unrecovered())
	}
}

// clonePlan deep-copies everything reachable from a plan.
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

// TestLeaderFailoverLeavesElectionAlone: the plan's leader map and
// succession lines are the election's own slices, and a runtime handoff
// used to be written through them into the record Audit, Explain and
// /v1/plan read. Plan hands every rank the same plan, so under the
// leader fault schedule (ranks 0 and 4, two elected leaders, die
// mid-collective) and under node failures, every rank must hold that
// one plan and it must come back from the run deep-equal to a clone
// taken before it.
func TestLeaderFailoverLeavesElectionAlone(t *testing.T) {
	leaders, err := faults.LoadSpec("../../examples/chaos-leader.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec faults.Spec
	}{
		{"leader failures", leaders},
		{"node failures", faults.Spec{NodeFailures: []faults.NodeFailure{{Node: 1, Round: 1}, {Node: 3, Round: 2}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched, err := faults.NewSchedule(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			machine, err := cluster.New(testMachine(4, 4))
			if err != nil {
				t.Fatal(err)
			}
			fs, err := pfs.New(testFS(), machine)
			if err != nil {
				t.Fatal(err)
			}
			engine := simtime.NewEngine()
			world, err := mpi.NewWorld(engine, machine, 16)
			if err != nil {
				t.Fatal(err)
			}
			world.SetFaults(sched)
			file := fs.Open("x")
			wl := workload.IOR{Ranks: 16, BlockSize: 32 << 10, Segments: 3}
			var plan, planBefore *collio.Plan
			world.Start(func(c *mpi.Comm) {
				view := wl.View(c.Rank())
				_, s := twolayer.Strategy{CBBuffer: collio.BufFloor}.Plan("write", c, view, nil)
				p := s.(*collio.Plan)
				if plan == nil {
					plan, planBefore = p, clonePlan(p)
					if p.LeaderOf == nil {
						t.Fatal("the plan carries no leader map: nothing for a handoff to write through")
					}
				} else if p != plan {
					t.Errorf("rank %d was built a plan of its own", c.Rank())
				}
				p.Run("write", file, c, view, buffer.NewPhantom(view.TotalBytes()), &trace.Metrics{})
			})
			if err := engine.Run(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan, planBefore) {
				t.Errorf("the run wrote the shared plan:\n%+v\n%+v", plan, planBefore)
			}
			if sched.Failovers() < 2 || sched.Unrecovered() != 0 {
				t.Errorf("failovers %d unrecovered %d, want both failures handed off", sched.Failovers(), sched.Unrecovered())
			}
		})
	}
}
