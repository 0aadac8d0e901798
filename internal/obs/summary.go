package obs

import (
	"fmt"
	"io"
	"sort"
)

// PhaseTotal accumulates one phase's spans.
type PhaseTotal struct {
	Seconds float64 // summed span durations across all tracks
	Bytes   int64
	Extra   int64
	Count   int64 // number of spans (or instants)
}

// RoundTotal is the per-round phase split, summed across ranks.
type RoundTotal struct {
	Round                                             int
	Barrier, Pack, Intra, Exchange, RMW, Assembly, IO float64
	ExchangeBytes, IOBytes                            int64
}

// MemPoint is one ledger sample on a node.
type MemPoint struct {
	T    float64
	Used int64
}

// Summary is the aggregated view of one trace: the phase-breakdown
// table the report command prints and the figures compare against.
type Summary struct {
	Start, End float64 // earliest T0 / latest T1 over all spans

	Phases  map[Phase]*PhaseTotal // top-level pipeline phases
	Detail  map[Phase]*PhaseTotal // mpi.* / pfs.* spans and planner instants
	Rounds  []*RoundTotal         // indexed by round number
	PerRank map[int]map[Phase]float64

	GroupBytes   map[int]int64 // group -> exchange payload bytes
	GroupSeconds map[int]float64

	NodeMem     map[int][]MemPoint // node -> ledger timeline
	NodeMemPeak map[int]int64
}

// maxSummaryRounds bounds the per-round table: Rounds is indexed by
// the round numbers the trace claims, and a corrupt file claiming a
// round in the billions must not allocate a slice that large. Real
// runs stay well under this (rounds grow with data / window size).
const maxSummaryRounds = 1 << 16

// Summarize folds a trace into its breakdown. It never panics on
// hostile input: an empty or nil event slice yields a zero Summary,
// and events with out-of-range round numbers are dropped from the
// per-round table (they still count toward the phase totals).
func Summarize(events []Event) *Summary {
	s := &Summary{
		Phases:       map[Phase]*PhaseTotal{},
		Detail:       map[Phase]*PhaseTotal{},
		PerRank:      map[int]map[Phase]float64{},
		GroupBytes:   map[int]int64{},
		GroupSeconds: map[int]float64{},
		NodeMem:      map[int][]MemPoint{},
		NodeMemPeak:  map[int]int64{},
	}
	first := true
	add := func(m map[Phase]*PhaseTotal, e Event) {
		pt := m[e.Phase]
		if pt == nil {
			pt = &PhaseTotal{}
			m[e.Phase] = pt
		}
		pt.Seconds += e.Dur()
		pt.Bytes += e.Bytes
		pt.Extra += e.Extra
		pt.Count++
	}
	round := func(r int) *RoundTotal {
		for len(s.Rounds) <= r {
			s.Rounds = append(s.Rounds, &RoundTotal{Round: len(s.Rounds)})
		}
		return s.Rounds[r]
	}
	for _, e := range events {
		switch e.Kind {
		case KindCounter:
			if e.Phase == CounterMem {
				s.NodeMem[e.Loc.Node] = append(s.NodeMem[e.Loc.Node], MemPoint{T: e.T0, Used: e.Bytes})
				if e.Bytes > s.NodeMemPeak[e.Loc.Node] {
					s.NodeMemPeak[e.Loc.Node] = e.Bytes
				}
			}
			continue
		case KindInstant:
			add(s.Detail, e)
			continue
		}
		// Spans.
		if first || e.T0 < s.Start {
			s.Start = e.T0
		}
		if first || e.T1 > s.End {
			s.End = e.T1
		}
		first = false
		if !e.Phase.TopLevel() {
			add(s.Detail, e)
			continue
		}
		add(s.Phases, e)
		if pr := s.PerRank[e.Loc.Rank]; pr == nil {
			s.PerRank[e.Loc.Rank] = map[Phase]float64{e.Phase: e.Dur()}
		} else {
			pr[e.Phase] += e.Dur()
		}
		if e.Loc.Group >= 0 && e.Phase == PhaseExchange {
			s.GroupBytes[e.Loc.Group] += e.Bytes
			s.GroupSeconds[e.Loc.Group] += e.Dur()
		}
		if r := e.Loc.Round; r >= 0 && r < maxSummaryRounds {
			rt := round(r)
			switch e.Phase {
			case PhaseBarrier:
				rt.Barrier += e.Dur()
			case PhasePack:
				rt.Pack += e.Dur()
			case PhaseIntra:
				rt.Intra += e.Dur()
			case PhaseExchange:
				rt.Exchange += e.Dur()
				rt.ExchangeBytes += e.Bytes
			case PhaseRMW:
				rt.RMW += e.Dur()
				rt.IOBytes += e.Bytes
			case PhaseAssembly:
				rt.Assembly += e.Dur()
			case PhaseIO:
				rt.IO += e.Dur()
				rt.IOBytes += e.Bytes
			}
		}
	}
	return s
}

// PhaseSeconds returns the summed duration of one top-level phase.
func (s *Summary) PhaseSeconds(p Phase) float64 {
	if pt := s.Phases[p]; pt != nil {
		return pt.Seconds
	}
	return 0
}

// Elapsed returns the trace's wall-clock (virtual) extent.
func (s *Summary) Elapsed() float64 { return s.End - s.Start }

// phaseOrder is the presentation order of the breakdown tables.
var phaseOrder = []Phase{
	PhasePlan, PhaseReqExchange, PhaseBarrier, PhasePack, PhaseIntra,
	PhaseExchange, PhaseRMW, PhaseAssembly, PhaseIO,
}

// WriteText renders the breakdown tables (phase split, per-round
// split, per-group traffic, per-node memory high-water) to w.
func (s *Summary) WriteText(w io.Writer) {
	elapsed := s.Elapsed()
	var total float64
	for _, p := range phaseOrder {
		total += s.PhaseSeconds(p)
	}
	fmt.Fprintf(w, "trace extent: %.6f s virtual (%d ranks)\n", elapsed, len(s.PerRank))
	fmt.Fprintf(w, "\n%-14s %12s %8s %14s %8s\n", "phase", "seconds", "share", "bytes", "spans")
	for _, p := range phaseOrder {
		pt := s.Phases[p]
		if pt == nil {
			continue
		}
		share := 0.0
		if total > 0 {
			share = pt.Seconds / total * 100
		}
		fmt.Fprintf(w, "%-14s %12.6f %7.1f%% %14d %8d\n", p, pt.Seconds, share, pt.Bytes, pt.Count)
	}
	fmt.Fprintf(w, "%-14s %12.6f\n", "total", total)

	if len(s.Rounds) > 0 {
		fmt.Fprintf(w, "\n%5s %10s %10s %10s %10s %10s %10s %12s %12s\n",
			"round", "barrier", "pack", "intra", "exchange", "rmw", "assembly", "io", "xchg-bytes")
		for _, rt := range s.Rounds {
			fmt.Fprintf(w, "%5d %10.6f %10.6f %10.6f %10.6f %10.6f %10.6f %12.6f %12d\n",
				rt.Round, rt.Barrier, rt.Pack, rt.Intra, rt.Exchange, rt.RMW, rt.Assembly, rt.IO, rt.ExchangeBytes)
		}
	}

	if len(s.GroupBytes) > 0 {
		groups := make([]int, 0, len(s.GroupBytes))
		for g := range s.GroupBytes {
			groups = append(groups, g)
		}
		sort.Ints(groups)
		fmt.Fprintf(w, "\n%5s %14s %12s\n", "group", "xchg-bytes", "xchg-sec")
		for _, g := range groups {
			fmt.Fprintf(w, "%5d %14d %12.6f\n", g, s.GroupBytes[g], s.GroupSeconds[g])
		}
	}

	if len(s.NodeMemPeak) > 0 {
		nodes := make([]int, 0, len(s.NodeMemPeak))
		for n := range s.NodeMemPeak {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		fmt.Fprintf(w, "\n%5s %14s %8s\n", "node", "mem-peak", "samples")
		for _, n := range nodes {
			fmt.Fprintf(w, "%5d %14d %8d\n", n, s.NodeMemPeak[n], len(s.NodeMem[n]))
		}
	}

	if det := s.detailPhases(); len(det) > 0 {
		fmt.Fprintf(w, "\n%-14s %12s %14s %8s\n", "detail", "seconds", "bytes", "events")
		for _, p := range det {
			pt := s.Detail[p]
			fmt.Fprintf(w, "%-14s %12.6f %14d %8d\n", p, pt.Seconds, pt.Bytes, pt.Count)
		}
	}
}

func (s *Summary) detailPhases() []Phase {
	out := make([]Phase, 0, len(s.Detail))
	for p := range s.Detail {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
