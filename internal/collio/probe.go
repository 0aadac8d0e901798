package collio

import (
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// probe records one rank's facts of one collective call, and is the
// only code in collio that writes an observability sink. Each method is
// one fact and writes every sink the fact reaches: the rank's obs span,
// its trace.Metrics, and the registry series, whose handles are
// resolved once per collective. With tracing and metrics off the tracer
// and every handle are nil and a fact costs a few nil checks and no
// allocation (TestProbeDisabledZeroAlloc). DESIGN.md §8b tabulates which
// sink each fact reaches.
type probe struct {
	c     *mpi.Comm
	t     *obs.Tracer
	m     *trace.Metrics
	loc   obs.Loc // the rank's track identity; facts set Round
	write bool

	rounds          *metrics.Counter
	shuffleIntra    *metrics.Counter
	shuffleInter    *metrics.Counter
	exchangeSeconds *metrics.Counter
	ioSeconds       *metrics.Counter
	roundIOBytes    *metrics.Histogram
}

// phase is an open span and the virtual time it opened at, from which
// the fact that closes it takes its seconds.
type phase struct {
	sp *obs.Span
	t0 float64
}

// newProbe resolves the sinks of rank c's collective in direction op
// for the plan's group. A nil m is replaced by a private record nobody
// reads, so every fact writes it unconditionally.
func newProbe(c *mpi.Comm, op string, group int, m *trace.Metrics) probe {
	if m == nil {
		m = new(trace.Metrics)
	}
	r := c.Metrics()
	return probe{
		c: c, t: c.Tracer(), m: m, write: op == "write",
		loc: obs.Loc{Rank: c.WorldRank(c.Rank()), Node: c.NodeOf(c.Rank()), Group: group, Round: -1},
		rounds: r.Counter("mccio_engine_rounds_total",
			"Two-phase rounds executed by aggregators.", "op", op),
		shuffleIntra: r.Counter("mccio_shuffle_bytes_total",
			"Shuffle payload bytes exchanged between ranks and aggregators.",
			"op", op, "locality", "intra"),
		shuffleInter: r.Counter("mccio_shuffle_bytes_total",
			"Shuffle payload bytes exchanged between ranks and aggregators.",
			"op", op, "locality", "inter"),
		exchangeSeconds: r.Counter("mccio_exchange_seconds_total",
			"Virtual seconds aggregators spent in the shuffle exchange.", "op", op),
		ioSeconds: r.Counter("mccio_io_seconds_total",
			"Virtual seconds aggregators spent in file I/O.", "op", op),
		roundIOBytes: r.Histogram("mccio_round_io_bytes",
			"File bytes moved per aggregator round.", metrics.DefBytesBuckets(), "op", op),
	}
}

// at is the rank's location in round r (-1 outside the rounds).
func (p *probe) at(r int) obs.Loc {
	loc := p.loc
	loc.Round = r
	return loc
}

// begin opens phase ph of round r.
func (p *probe) begin(ph obs.Phase, r int) phase {
	return phase{sp: p.t.Begin(ph, p.at(r)), t0: p.c.Now()}
}

// end closes a phase that records no fact but its span: the request
// exchange, a barrier, packing and unpacking.
func (p *probe) end(ph phase, bytes int64) { ph.sp.EndBytes(bytes, 0) }

// exchange closes a round's shuffle between leaders and aggregators:
// the payload this rank staged, by locality, and the exchange time.
func (p *probe) exchange(ph phase, intra, inter int64) {
	sec := p.c.Now() - ph.t0
	ph.sp.EndBytes(intra+inter, 0)
	p.m.BytesShuffleIntra += intra
	p.m.BytesShuffleInter += inter
	p.m.ExchangeSeconds += sec
	p.shuffleIntra.Add(float64(intra))
	p.shuffleInter.Add(float64(inter))
	p.exchangeSeconds.Add(sec)
}

// intra closes a round's intra-node stage: spanBytes on the span (what
// the rank packed, on writes) and the payload it moved over the memory
// bus — a mate's funnel to its leader, a leader's fan-out to its mates —
// as on-node shuffle bytes, at no exchange time.
func (p *probe) intra(ph phase, spanBytes, moved int64) {
	ph.sp.EndBytes(spanBytes, 0)
	p.m.BytesShuffleIntra += moved
	p.shuffleIntra.Add(float64(moved))
}

// rmw closes a write window's read-modify-write pre-read of bytes, one
// request. Its bytes, request and time are the I/O fact's too.
func (p *probe) rmw(ph phase, bytes int64) { ph.sp.EndBytes(bytes, 1) }

// assembly closes an aggregator's scatter/gather between its buffer and
// the shuffle payloads over bytes of coverage. On writes it is the
// receiving end of the shuffle, and trace.Metrics counts its time as
// exchange time (mccio_exchange_seconds_total does not).
func (p *probe) assembly(ph phase, bytes int64) {
	ph.sp.EndBytes(bytes, 0)
	if p.write {
		p.m.ExchangeSeconds += p.c.Now() - ph.t0
	}
}

// io closes an aggregator's file I/O of one round: bytes and requests,
// and the time since t0 — on writes the window's start, so the
// read-modify-write and the assembly count as I/O time.
func (p *probe) io(ph phase, t0 float64, bytes, reqs int64) {
	sec := p.c.Now() - t0
	ph.sp.EndBytes(bytes, reqs)
	p.m.BytesIO += bytes
	p.m.IORequests += reqs
	p.m.IOSeconds += sec
	p.rounds.Inc()
	p.ioSeconds.Add(sec)
	if bytes > 0 {
		p.roundIOBytes.Observe(float64(bytes))
	}
}

// roundEnd records that this rank served a window in round r; the
// collective's round count is the largest.
func (p *probe) roundEnd(r int) { p.m.Rounds = max(p.m.Rounds, r+1) }

// aggregator records that this rank aggregates a domain with a buffer
// of buf bytes.
func (p *probe) aggregator(buf int64) {
	p.m.Aggregators++
	p.m.AggBufferBytes = append(p.m.AggBufferBytes, buf)
}

// memSample records the aggregator's node ledger (used, high-water,
// capacity) in the decision audit at the start of round r.
func (p *probe) memSample(r int) {
	rec := p.c.Explain()
	if !rec.Enabled() {
		return
	}
	node := p.c.World().Machine().Node(p.c.NodeOf(p.c.Rank()))
	rec.MemSample(node.ID, r, node.Used(), node.HighWater(), node.Capacity)
}

// remerge records the failover remerge ev, decided in round r, that this
// rank took over: the fault schedule's tally, instant and counter, and
// one remerge in trace.Metrics.
func (p *probe) remerge(sched *faults.Schedule, r int, ev FoEvent) {
	sched.RecordFailover(p.at(r), ev.Kind == foNodeDeath, ev.Bytes, ev.Failed)
	p.m.Remerges++
}

// PlanOneGroup runs build, a single-group strategy's planning, under
// the calling rank's plan span, and records the one group it plans.
func PlanOneGroup(c *mpi.Comm, m *trace.Metrics, build func() *Plan) *Plan {
	sp := c.Tracer().Begin(obs.PhasePlan, obs.Loc{Rank: c.WorldRank(c.Rank()), Node: c.NodeOf(c.Rank()), Group: 0, Round: -1})
	plan := build()
	sp.End()
	if m != nil {
		m.Groups = 1
	}
	return plan
}
