package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// manualClock is a settable virtual-time source for tests.
type manualClock struct{ t float64 }

func (c *manualClock) now() float64 { return c.t }

func testLoc(rank, round int) Loc {
	return Loc{Rank: rank, Node: rank / 2, Group: 0, Round: round}
}

// sampleTracer records a small but representative trace: a plan span,
// one round of phases on two ranks, planner instants, and ledger
// counters.
func sampleTracer() *Tracer {
	clk := &manualClock{}
	t := NewTracer()
	t.SetClock(clk.now)

	sp := t.Begin(PhasePlan, testLoc(0, -1))
	clk.t = 0.5
	sp.End()
	t.Instant(EventGroupDivision, testLoc(0, -1), 1<<20, 2)
	t.Counter(CounterMem, Loc{Rank: -1, Node: 0, Group: -1, Round: -1}, 4096)

	for rank := 0; rank < 2; rank++ {
		loc := testLoc(rank, 0)
		sp = t.Begin(PhaseBarrier, loc)
		clk.t += 0.1
		sp.End()
		sp = t.Begin(PhaseExchange, loc)
		inner := t.Begin(PhaseMPIAlltoall, Loc{Rank: rank, Node: rank / 2, Group: -1, Round: -1})
		clk.t += 0.2
		inner.EndBytes(512, 2)
		sp.EndBytes(1024, 0)
		sp = t.Begin(PhaseIO, loc)
		clk.t += 0.3
		sp.EndBytes(2048, 4)
	}
	t.Counter(CounterMem, Loc{Rank: -1, Node: 0, Group: -1, Round: -1}, 8192)
	return t
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer claims enabled")
	}
	tr.SetClock(func() float64 { return 1 })
	sp := tr.Begin(PhaseIO, NoLoc)
	sp.End()
	sp.EndBytes(1, 2)
	tr.Instant(EventPlace, NoLoc, 1, 2)
	tr.Counter(CounterMem, NoLoc, 3)
	tr.Reset()
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded something")
	}
}

func TestDisabledTracingAllocatesNothing(t *testing.T) {
	// The exact call pattern the engine round loop performs per rank per
	// round, on a disabled (nil) tracer: must be allocation-free so the
	// instrumentation is zero-cost when tracing is off.
	var tr *Tracer
	loc := Loc{Rank: 3, Node: 1, Group: 0, Round: 2}
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Begin(PhaseBarrier, loc)
		sp.End()
		sp = tr.Begin(PhasePack, loc)
		sp.EndBytes(1024, 0)
		sp = tr.Begin(PhaseExchange, loc)
		sp.EndBytes(2048, 0)
		sp = tr.Begin(PhaseRMW, loc)
		sp.EndBytes(4096, 1)
		sp = tr.Begin(PhaseAssembly, loc)
		sp.EndBytes(4096, 0)
		sp = tr.Begin(PhaseIO, loc)
		sp.EndBytes(8192, 2)
		tr.Instant(EventStripe, loc, 64, 1)
		tr.Counter(CounterMem, loc, 4096)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per round, want 0", allocs)
	}
}

func TestSpanRecording(t *testing.T) {
	clk := &manualClock{t: 1.5}
	tr := NewTracer()
	tr.SetClock(clk.now)
	sp := tr.Begin(PhaseExchange, testLoc(1, 3))
	clk.t = 2.25
	sp.EndBytes(100, 7)
	ev := tr.Events()
	if len(ev) != 1 {
		t.Fatalf("%d events", len(ev))
	}
	e := ev[0]
	if e.Kind != KindSpan || e.Phase != PhaseExchange || e.T0 != 1.5 || e.T1 != 2.25 {
		t.Fatalf("span %+v", e)
	}
	if e.Loc != testLoc(1, 3) || e.Bytes != 100 || e.Extra != 7 || e.Dur() != 0.75 {
		t.Fatalf("span %+v", e)
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("reset kept events")
	}
}

func TestPhaseTaxonomy(t *testing.T) {
	top := []Phase{PhasePlan, PhaseReqExchange, PhaseBarrier, PhasePack,
		PhaseIntra, PhaseExchange, PhaseRMW, PhaseAssembly, PhaseIO}
	for _, p := range top {
		if !p.TopLevel() || p.Category() != "phase" {
			t.Fatalf("%s should be top-level", p)
		}
	}
	for p, cat := range map[Phase]string{
		PhaseMPIBarrier: "mpi", PhaseMPIAlltoall: "mpi",
		PhasePFSRead: "pfs", PhasePFSWrite: "pfs",
		EventGroupDivision: "planner", EventStripe: "planner",
		CounterMem: "mem",
	} {
		if p.TopLevel() || p.Category() != cat {
			t.Fatalf("%s: category %s, want %s", p, p.Category(), cat)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Events()) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr.Events())
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("%d events back, want %d", len(got), len(want))
	}
	const eps = 1e-9
	for i, g := range got {
		w := want[i]
		if g.Kind != w.Kind || g.Phase != w.Phase || g.Loc != w.Loc ||
			g.Bytes != w.Bytes || g.Extra != w.Extra {
			t.Fatalf("event %d: got %+v want %+v", i, g, w)
		}
		if d := g.T0 - w.T0; d < -eps || d > eps {
			t.Fatalf("event %d: T0 %v want %v", i, g.T0, w.T0)
		}
		if d := g.T1 - w.T1; d < -eps || d > eps {
			t.Fatalf("event %d: T1 %v want %v", i, g.T1, w.T1)
		}
	}
}

func TestParseAutoSniffsBothFormats(t *testing.T) {
	tr := sampleTracer()
	var chrome, jsonl bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"chrome": &chrome, "jsonl": &jsonl} {
		ev, err := ParseAuto(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ev) != tr.Len() {
			t.Fatalf("%s: %d events, want %d", name, len(ev), tr.Len())
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sampleTracer().Events())
	if got := s.PhaseSeconds(PhasePlan); !near(got, 0.5) {
		t.Fatalf("plan %v", got)
	}
	// Two ranks, 0.1 barrier + 0.2 exchange + 0.3 io each.
	if got := s.PhaseSeconds(PhaseBarrier); !near(got, 0.2) {
		t.Fatalf("barrier %v", got)
	}
	if got := s.PhaseSeconds(PhaseExchange); !near(got, 0.4) {
		t.Fatalf("exchange %v", got)
	}
	if got := s.PhaseSeconds(PhaseIO); !near(got, 0.6) {
		t.Fatalf("io %v", got)
	}
	if len(s.Rounds) != 1 {
		t.Fatalf("%d rounds", len(s.Rounds))
	}
	rt := s.Rounds[0]
	if !near(rt.Exchange, 0.4) || rt.ExchangeBytes != 2048 || rt.IOBytes != 4096 {
		t.Fatalf("round %+v", rt)
	}
	if s.NodeMemPeak[0] != 8192 || len(s.NodeMem[0]) != 2 {
		t.Fatalf("mem %v %v", s.NodeMemPeak, s.NodeMem)
	}
	if s.GroupBytes[0] != 2048 {
		t.Fatalf("group bytes %v", s.GroupBytes)
	}
	if mpi := s.Detail[PhaseMPIAlltoall]; mpi == nil || mpi.Count != 2 || mpi.Bytes != 1024 {
		t.Fatalf("detail %+v", s.Detail)
	}
	// Rank 1's track: barrier + exchange + io.
	var rank1 float64
	for _, sec := range s.PerRank[1] {
		rank1 += sec
	}
	if !near(rank1, 0.6) {
		t.Fatalf("rank seconds %v", rank1)
	}

	var text strings.Builder
	s.WriteText(&text)
	for _, want := range []string{"phase", "barrier", "exchange", "io", "round", "mem-peak", "mpi.alltoall"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, text.String())
		}
	}
}

func near(a, b float64) bool {
	d := a - b
	return d > -1e-12 && d < 1e-12
}

func TestSpanIDRoundTrip(t *testing.T) {
	// A span opened with BeginID carries the correlation ID through
	// recording and through both export formats — the join key between
	// serve.* spans and the request log.
	clk := &manualClock{t: 0.5}
	tr := NewTracer()
	tr.SetClock(clk.now)
	sp := tr.BeginID("serve.plan", NoLoc, "req-42abc")
	clk.t = 0.75
	sp.EndBytes(128, 1)
	sp2 := tr.Begin(PhaseIO, testLoc(0, 0)) // an ID-less span stays ID-less
	sp2.End()

	ev := tr.Events()
	if ev[0].ID != "req-42abc" || ev[1].ID != "" {
		t.Fatalf("recorded IDs %q, %q", ev[0].ID, ev[1].ID)
	}

	var jl bytes.Buffer
	if err := tr.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSONL(bytes.NewReader(jl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ev) {
		t.Fatalf("jsonl round trip mismatch:\n got %+v\nwant %+v", got, ev)
	}

	var ch bytes.Buffer
	if err := tr.WriteChrome(&ch); err != nil {
		t.Fatal(err)
	}
	got, err = ParseChrome(bytes.NewReader(ch.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != "req-42abc" || got[1].ID != "" {
		t.Fatalf("chrome round trip IDs %q, %q", got[0].ID, got[1].ID)
	}
}

func TestBeginIDNilTracerAllocatesNothing(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.BeginID(PhaseIO, NoLoc, "some-request-id")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled BeginID allocates %.1f per span, want 0", allocs)
	}
}
