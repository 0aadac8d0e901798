package collio

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// probeRound makes one aggregator round's worth of probe calls, every
// fact the round loop records on a write with a read-modify-write and
// an intra-node stage.
func probeRound(p *probe, r int) {
	ph := p.begin(obs.PhaseBarrier, r)
	p.end(ph, 0)
	p.memSample(r)
	ph = p.begin(obs.PhasePack, r)
	p.end(ph, 4096)
	ph = p.begin(obs.PhaseIntra, r)
	p.intra(ph, 4096, 4096)
	ph = p.begin(obs.PhaseExchange, r)
	p.exchange(ph, 4096, 1<<20)
	ph = p.begin(obs.PhaseRMW, r)
	p.rmw(ph, 1<<20)
	ph = p.begin(obs.PhaseAssembly, r)
	p.assembly(ph, 1<<20)
	ph = p.begin(obs.PhaseIO, r)
	p.io(ph, ph.t0, 1<<20, 2)
	p.roundEnd(r)
}

// onRank runs body as the only rank of a one-node machine, with sinks
// attaching whatever observability it wants first.
func onRank(tb testing.TB, sinks func(*cluster.Machine), body func(c *mpi.Comm)) {
	e, m, _ := testRig(tb, 1, 1, 64*cluster.MiB)
	sinks(m)
	w, err := mpi.NewWorld(e, m, 1)
	if err != nil {
		tb.Fatal(err)
	}
	w.Start(body)
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
}

// TestProbeDisabledZeroAlloc is the round loop's zero-cost contract:
// with no tracer, registry or audit attached, a round's worth of facts
// allocates nothing.
func TestProbeDisabledZeroAlloc(t *testing.T) {
	onRank(t, func(*cluster.Machine) {}, func(c *mpi.Comm) {
		p := newProbe(c, "write", 0, nil)
		if n := testing.AllocsPerRun(100, func() { probeRound(&p, 3) }); n != 0 {
			t.Errorf("a round of probe calls with every sink off allocates %v objects, want 0", n)
		}
		if p.m.Rounds != 4 || p.m.BytesShuffleIntra == 0 || p.m.IORequests == 0 {
			t.Errorf("the facts did not reach trace.Metrics: %+v", *p.m)
		}
	})
}

// TestProbeRoundEndKeepsMax: the collective's round count is the last
// round any aggregator served, whatever order they finish in.
func TestProbeRoundEndKeepsMax(t *testing.T) {
	p := probe{m: &trace.Metrics{}}
	for _, r := range []int{2, 0, 6} {
		p.roundEnd(r)
	}
	if p.m.Rounds != 7 {
		t.Fatalf("rounds %d, want 7", p.m.Rounds)
	}
}

// BenchmarkProbeRound is one round's worth of probe calls with a tracer
// and a registry attached: the enabled cost the disabled path avoids.
func BenchmarkProbeRound(b *testing.B) {
	tr := obs.NewTracer()
	onRank(b, func(m *cluster.Machine) {
		m.SetTracer(tr)
		m.SetMetrics(metrics.New())
	}, func(c *mpi.Comm) {
		p := newProbe(c, "write", 0, &trace.Metrics{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				tr.Reset() // bound the event log; Reset keeps its capacity
			}
			probeRound(&p, i)
		}
	})
}
