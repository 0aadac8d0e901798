// Package obs is the event-level tracing subsystem for the collective
// I/O pipeline. Where internal/trace accumulates end-of-run scalar
// counters, obs records *when* things happened: typed spans (plan
// build, per-round barrier wait, shuffle exchange, assembly,
// read-modify-write, file I/O) and instant events (group division,
// partition-tree build, remerge and placement decisions, per-stripe
// service), each stamped with virtual time, rank, node, group, and
// round, plus counter events for the cluster memory ledger.
//
// A nil *Tracer disables collection: every method is nil-safe and the
// disabled path performs no allocations, so instrumented hot loops
// (the two-phase round engine runs one span set per round per rank)
// cost nothing when tracing is off. Traces export as Chrome
// trace_event JSON (load in Perfetto / chrome://tracing; one track per
// rank, grouped by node) or as a JSONL stream for scripting, and
// Summarize aggregates either back into a per-phase / per-round
// breakdown.
package obs

import "sync"

// Phase identifies what a span or event measures. Dotted prefixes
// namespace the detail layers: "mpi." spans nest inside engine phases,
// "pfs." spans nest inside the I/O phases. Phases without a prefix are
// the top-level pipeline phases that tile each rank's timeline.
type Phase string

// Top-level pipeline phases. On any rank's track these spans are
// sequential and cover (almost) the whole collective, so their
// durations sum to the operation's elapsed time.
const (
	// PhasePlan covers strategy planning: metadata allgather, group
	// division, partition tree, placement, and the plan broadcast.
	PhasePlan Phase = "plan"
	// PhaseReqExchange is the upfront exchange of request lists
	// between ranks and the aggregators whose domains they touch.
	PhaseReqExchange Phase = "req-exchange"
	// PhaseBarrier is lock-step wait: the per-round entry barrier and
	// the collective's closing barrier (round -1).
	PhaseBarrier Phase = "barrier"
	// PhasePack is sender-side marshalling of view data into
	// per-domain shuffle pieces.
	PhasePack Phase = "pack"
	// PhaseIntra is the intra-node layer of the two-layer exchange:
	// ranks funnelling pieces to their node leader (writes) or leaders
	// fanning pieces out to their mates (reads).
	PhaseIntra Phase = "intra"
	// PhaseExchange is the inter-process shuffle (alltoall) of a round.
	PhaseExchange Phase = "exchange"
	// PhaseRMW is the read-modify-write pre-read of a write window.
	PhaseRMW Phase = "rmw"
	// PhaseAssembly is aggregator-side scatter/gather between the
	// collective buffer and shuffle payloads, including the modelled
	// off-chip memory pass.
	PhaseAssembly Phase = "assembly"
	// PhaseIO is file-system service time of a round's window.
	PhaseIO Phase = "io"
)

// Detail spans, nested under the top-level phases.
const (
	PhaseMPIBarrier  Phase = "mpi.barrier"  // dissemination-barrier wait
	PhaseMPIAlltoall Phase = "mpi.alltoall" // pairwise alltoall(v) wait
	PhasePFSWrite    Phase = "pfs.write"    // one write request batch
	PhasePFSRead     Phase = "pfs.read"     // one read request batch
)

// Instant events (planner decisions and per-stripe service).
const (
	EventGroupDivision Phase = "group-division" // Bytes = total bytes, Extra = group count
	EventPartition     Phase = "partition-tree" // Bytes = coverage bytes, Extra = leaf count
	EventRemerge       Phase = "remerge"        // Extra = remerge count for the group
	EventPlace         Phase = "place"          // Bytes = buffer bytes, Extra = aggregator rank
	EventLeader        Phase = "leader-elect"   // Bytes = winner's score, Extra = leader rank
	EventStripe        Phase = "stripe"         // Bytes = run bytes, Extra = OST index
)

// Fault-injection and resilience instants (internal/faults). The
// "fault:" events mark injections; the "failover:" events mark the
// engine's dynamic remerge response.
const (
	EventFaultMem       Phase = "fault:mem"            // Bytes = squatted bytes, Extra = round applied
	EventFaultNode      Phase = "fault:node"           // Loc.Node = failed node, Extra = failure round
	EventFaultRank      Phase = "fault:rank"           // Loc.Rank = failed rank, Extra = failure round
	EventFaultDrop      Phase = "fault:drop"           // Bytes = drops this round, Extra = penalty ns
	EventFaultDelay     Phase = "fault:delay"          // Bytes = delay ns, Extra = destination node
	EventFaultSlow      Phase = "fault:slow"           // Bytes = factor x1000, Extra = OST (-1 for links)
	EventFailover       Phase = "failover:remerge"     // Bytes = window bytes moved, Extra = failed domain
	EventFailoverLeader Phase = "failover:leader"      // Bytes = successor rank, Extra = failed leader rank
	EventFailoverLost   Phase = "failover:unrecovered" // Extra = failed domain
)

// CounterMem is the per-node memory-ledger counter; Bytes carries the
// node's allocation after the Alloc/Free that emitted it.
const CounterMem Phase = "mem"

// Category returns the phase's track grouping for exporters: "phase"
// for top-level pipeline phases, the prefix for detail spans, "planner"
// for decision instants, and "mem" for ledger counters.
func (p Phase) Category() string {
	switch p {
	case PhaseMPIBarrier, PhaseMPIAlltoall:
		return "mpi"
	case PhasePFSWrite, PhasePFSRead:
		return "pfs"
	case EventGroupDivision, EventPartition, EventRemerge, EventPlace, EventLeader, EventStripe:
		return "planner"
	case EventFaultMem, EventFaultNode, EventFaultRank, EventFaultDrop, EventFaultDelay, EventFaultSlow:
		return "fault"
	case EventFailover, EventFailoverLeader, EventFailoverLost:
		return "failover"
	case CounterMem:
		return "mem"
	}
	return "phase"
}

// TopLevel reports whether spans of this phase tile a rank's timeline
// (the set whose per-track durations sum to the collective's elapsed
// time).
func (p Phase) TopLevel() bool { return p.Category() == "phase" }

// Loc places an event on the simulated machine. Rank is the world
// rank (the track identity), Node the physical node hosting it. Group
// and Round are -1 when not applicable (planner-wide spans, MPI/PFS
// detail, counters).
type Loc struct {
	Rank  int
	Node  int
	Group int
	Round int
}

// NoLoc is the Loc for machine-wide events.
var NoLoc = Loc{Rank: -1, Node: -1, Group: -1, Round: -1}

// Kind discriminates the event types.
type Kind uint8

const (
	KindSpan    Kind = iota // a [T0, T1) interval
	KindInstant             // a point event (T1 == T0)
	KindCounter             // a sampled value (Bytes) at T0
)

// String returns the JSONL kind tag.
func (k Kind) String() string {
	switch k {
	case KindSpan:
		return "span"
	case KindInstant:
		return "instant"
	case KindCounter:
		return "counter"
	}
	return "unknown"
}

// Event is one recorded trace entry. Bytes and Extra are
// phase-specific numeric payloads (see the Phase constants). ID, when
// non-empty, is a correlation key: the plan service stamps each
// serve.* span with the request's X-Request-ID so the span and the
// request's JSONL log record join on one identifier.
type Event struct {
	Kind  Kind
	Phase Phase
	T0    float64 // virtual seconds
	T1    float64 // == T0 for instants and counters
	Loc   Loc
	Bytes int64
	Extra int64
	ID    string
}

// Dur returns the span duration in virtual seconds.
func (e Event) Dur() float64 { return e.T1 - e.T0 }

// Tracer records events with timestamps from a virtual clock. The
// zero of the API is a nil *Tracer: every method returns immediately
// and allocates nothing, so instrumentation can stay unconditional in
// hot paths. The mutex makes recording safe from concurrently spawned
// simulation goroutines (the engine serializes them, but the tracer
// does not rely on that).
type Tracer struct {
	mu     sync.Mutex
	clock  func() float64
	events []Event
}

// NewTracer returns an enabled tracer. The clock may be nil until
// SetClock is called (events recorded before then are stamped 0).
func NewTracer() *Tracer { return &Tracer{} }

// SetClock installs the virtual-time source (typically
// simtime.Engine.Now). Nil-safe.
func (t *Tracer) SetClock(clock func() float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

func (t *Tracer) now() float64 {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// Span is an open interval returned by Begin; call End (or EndBytes)
// exactly once. Begin returns nil on a disabled tracer and every Span
// method is nil-safe, so hot paths carry one word for instrumentation
// that is off — constructing an inert ten-word Span per phase showed
// up as measurable copy overhead in round-heavy simulations.
type Span struct {
	t     *Tracer
	phase Phase
	loc   Loc
	t0    float64
	id    string
}

// Begin opens a span of phase p at loc, stamped now. On a nil tracer
// it returns an inert Span.
func (t *Tracer) Begin(p Phase, loc Loc) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, phase: p, loc: loc, t0: t.now()}
}

// BeginID opens a span carrying a correlation ID (a request ID). The
// ID lands on the recorded event, so trace consumers can join the span
// with external records (request logs) sharing the identifier. On a
// nil tracer it returns an inert Span at zero cost.
func (t *Tracer) BeginID(p Phase, loc Loc, id string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, phase: p, loc: loc, t0: t.now(), id: id}
}

// End closes the span at the current virtual time. Nil-safe.
func (s *Span) End() { s.EndBytes(0, 0) }

// EndBytes closes the span and attaches its numeric payload. Nil-safe:
// a span from a disabled tracer is nil and ends for free.
func (s *Span) EndBytes(bytes, extra int64) {
	if s == nil || s.t == nil {
		return
	}
	s.t.record(Event{Kind: KindSpan, Phase: s.phase, T0: s.t0, T1: s.t.now(),
		Loc: s.loc, Bytes: bytes, Extra: extra, ID: s.id})
}

// Instant records a point event. Nil-safe.
func (t *Tracer) Instant(p Phase, loc Loc, bytes, extra int64) {
	if t == nil {
		return
	}
	ts := t.now()
	t.record(Event{Kind: KindInstant, Phase: p, T0: ts, T1: ts, Loc: loc, Bytes: bytes, Extra: extra})
}

// Counter records a sampled value (e.g. a node's ledger allocation).
// Nil-safe.
func (t *Tracer) Counter(p Phase, loc Loc, value int64) {
	if t == nil {
		return
	}
	ts := t.now()
	t.record(Event{Kind: KindCounter, Phase: p, T0: ts, T1: ts, Loc: loc, Bytes: value})
}

func (t *Tracer) record(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a snapshot copy of the recorded events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Reset discards all recorded events (between benchmark repetitions).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
}
