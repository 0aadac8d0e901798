// Package faults is the deterministic fault-injection subsystem: a
// seeded Schedule, built from a declarative FaultSpec, that perturbs a
// simulation run with the failure modes extreme-scale systems actually
// see mid-collective:
//
//   - memory-pressure spikes that shrink a node's available aggregation
//     memory in the cluster ledger at a chosen round,
//   - straggler OSTs and degraded links that multiply storage and
//     fabric service times in virtual time,
//   - aggregator-node failures, which the collio engine answers with
//     runtime failover-by-remerge (the paper's Fig 5a/5b mechanism
//     invoked dynamically),
//   - message drop/delay on the shuffle exchanges, answered with
//     bounded exponential-backoff retries.
//
// Everything is deterministic: the same seed and spec produce a
// byte-identical fault trace and identical post-failover plans across
// runs. The package follows the repo's disabled-path contract — a nil
// *Schedule is inert, every method on it is nil-safe and free — and it
// never imports the layers it perturbs (cluster, mpi, pfs, collio);
// those layers hold a *Schedule and ask it questions.
package faults

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stats"
)

// RetrySpec bounds the shuffle-exchange retry loop: a dropped message
// is retransmitted after a timeout that doubles (Backoff) per attempt,
// capped at MaxTimeoutSec, for at most MaxRetries attempts. Retry
// exhaustion still delivers (the simulation models the penalty, not
// data loss), so a collective always completes.
type RetrySpec struct {
	TimeoutSec    float64 `json:"timeout_s"`     // first retry timeout (default 2ms)
	Backoff       float64 `json:"backoff"`       // timeout multiplier per attempt (default 2)
	MaxTimeoutSec float64 `json:"max_timeout_s"` // timeout ceiling (default 50ms)
	MaxRetries    int     `json:"max_retries"`   // attempts before giving up (default 4)
}

// MemPressure shrinks a node's available aggregation memory by Bytes
// starting at the given engine round, as if a co-resident application
// claimed it. The squat is permanent for the run.
type MemPressure struct {
	Node  int   `json:"node"`  // node index, 0-based
	Round int   `json:"round"` // engine round the squat lands on
	Bytes int64 `json:"bytes"` // bytes removed from the node's budget
}

// SlowOST multiplies one OST's service time by Factor while active.
// UntilSec 0 means active forever from FromSec on.
type SlowOST struct {
	OST      int     `json:"ost"`     // OST index, 0-based
	Factor   float64 `json:"factor"`  // service-time multiplier (dimensionless, >= 1)
	FromSec  float64 `json:"from_s"`  // virtual seconds from run start
	UntilSec float64 `json:"until_s"` // virtual seconds; 0 = forever
}

// SlowLink multiplies the fabric service time of messages entering or
// leaving Node by Factor while active; UntilSec 0 means forever.
type SlowLink struct {
	Node     int     `json:"node"`    // node index, 0-based
	Factor   float64 `json:"factor"`  // fabric service-time multiplier (dimensionless, >= 1)
	FromSec  float64 `json:"from_s"`  // virtual seconds from run start
	UntilSec float64 `json:"until_s"` // virtual seconds; 0 = forever
}

// NodeFailure kills a node as an aggregator host from the given engine
// round on: every file domain whose aggregator lives there is remerged
// into a surviving sibling domain. Ranks on the node keep participating
// in the exchange (the paper's model loses the aggregation service, not
// the process's data).
type NodeFailure struct {
	Node  int `json:"node"`  // node index, 0-based
	Round int `json:"round"` // engine round the failure lands on
}

// RankFailure kills a single world rank as a coordination service from
// the given engine round on. Under the two-layer exchange a failed
// node leader hands leadership to the next-best-scored surviving rank
// on its node (see collio's leader failover); like NodeFailure, the
// rank's own data keeps flowing — what dies is the service role.
type RankFailure struct {
	Rank  int `json:"rank"`  // world rank, 0-based
	Round int `json:"round"` // engine round the failure lands on
}

// MessageSpec drives the per-message fault draws: each shuffle exchange
// is dropped with DropRate (costing a retry), and each inter-node
// message is delayed with DelayRate by an exponential extra latency of
// mean DelayMeanSec.
type MessageSpec struct {
	DropRate     float64 `json:"drop_rate"`    // probability in [0,1] per exchange
	DelayRate    float64 `json:"delay_rate"`   // probability in [0,1] per inter-node message
	DelayMeanSec float64 `json:"delay_mean_s"` // mean of the exponential extra latency, seconds
}

// Spec is the declarative FaultSpec: what to inject and when. The zero
// value injects nothing. See examples/chaos.json for the JSON form.
type Spec struct {
	Seed         uint64        `json:"seed"`
	Retry        RetrySpec     `json:"retry"`
	MemPressure  []MemPressure `json:"mem_pressure,omitempty"`
	SlowOSTs     []SlowOST     `json:"slow_osts,omitempty"`
	SlowLinks    []SlowLink    `json:"slow_links,omitempty"`
	NodeFailures []NodeFailure `json:"node_failures,omitempty"`
	RankFailures []RankFailure `json:"rank_failures,omitempty"`
	Messages     MessageSpec   `json:"messages"`
}

// LoadSpec reads a FaultSpec from a JSON file, rejecting unknown fields
// so typos fail loudly instead of silently injecting nothing.
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("faults: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("faults: %s: %w", path, err)
	}
	return s, nil
}

// Validate rejects nonsensical fault specifications.
func (s Spec) Validate() error {
	for i, p := range s.MemPressure {
		if p.Node < 0 || p.Round < 0 || p.Bytes <= 0 {
			return fmt.Errorf("faults: mem_pressure[%d]: node %d round %d bytes %d", i, p.Node, p.Round, p.Bytes)
		}
	}
	for i, o := range s.SlowOSTs {
		if o.OST < 0 || o.Factor < 1 {
			return fmt.Errorf("faults: slow_osts[%d]: ost %d factor %g (must be >= 1)", i, o.OST, o.Factor)
		}
		if o.UntilSec != 0 && o.UntilSec < o.FromSec {
			return fmt.Errorf("faults: slow_osts[%d]: until %g before from %g", i, o.UntilSec, o.FromSec)
		}
	}
	for i, l := range s.SlowLinks {
		if l.Node < 0 || l.Factor < 1 {
			return fmt.Errorf("faults: slow_links[%d]: node %d factor %g (must be >= 1)", i, l.Node, l.Factor)
		}
		if l.UntilSec != 0 && l.UntilSec < l.FromSec {
			return fmt.Errorf("faults: slow_links[%d]: until %g before from %g", i, l.UntilSec, l.FromSec)
		}
	}
	for i, n := range s.NodeFailures {
		if n.Node < 0 || n.Round < 0 {
			return fmt.Errorf("faults: node_failures[%d]: node %d round %d", i, n.Node, n.Round)
		}
	}
	for i, r := range s.RankFailures {
		if r.Rank < 0 || r.Round < 0 {
			return fmt.Errorf("faults: rank_failures[%d]: rank %d round %d", i, r.Rank, r.Round)
		}
	}
	m := s.Messages
	if m.DropRate < 0 || m.DropRate > 1 {
		return fmt.Errorf("faults: drop_rate %g outside [0,1]", m.DropRate)
	}
	if m.DelayRate < 0 || m.DelayRate > 1 {
		return fmt.Errorf("faults: delay_rate %g outside [0,1]", m.DelayRate)
	}
	if m.DelayMeanSec < 0 {
		return fmt.Errorf("faults: negative delay_mean_s %g", m.DelayMeanSec)
	}
	if m.DelayRate > 0 && m.DelayMeanSec == 0 {
		return fmt.Errorf("faults: delay_rate %g with zero delay_mean_s", m.DelayRate)
	}
	r := s.Retry
	if r.TimeoutSec < 0 || r.Backoff < 0 || r.MaxTimeoutSec < 0 || r.MaxRetries < 0 {
		return fmt.Errorf("faults: negative retry parameter %+v", r)
	}
	return nil
}

// Fits reports the first entry that names a node, rank or OST the run
// does not have: nodes and osts are the machine's node and OST counts,
// ranks the workload's rank count. Validate judges a spec on its own,
// Fits on one platform; the caller supplies the counts, so this
// package still imports none of the layers it perturbs. An entry out
// of range would otherwise index past the ledger (mem_pressure) or
// match nothing while counting as injected.
func (s Spec) Fits(nodes, ranks, osts int) error {
	bad := func(kind string, entry any, what string, v, n int) error {
		return fmt.Errorf("faults: %s entry %+v names %s %d, but the run has %d %ss", kind, entry, what, v, n, what)
	}
	for _, p := range s.MemPressure {
		if p.Node >= nodes {
			return bad("mem_pressure", p, "node", p.Node, nodes)
		}
	}
	for _, o := range s.SlowOSTs {
		if o.OST >= osts {
			return bad("slow_osts", o, "OST", o.OST, osts)
		}
	}
	for _, l := range s.SlowLinks {
		if l.Node >= nodes {
			return bad("slow_links", l, "node", l.Node, nodes)
		}
	}
	for _, n := range s.NodeFailures {
		if n.Node >= nodes {
			return bad("node_failures", n, "node", n.Node, nodes)
		}
	}
	for _, r := range s.RankFailures {
		if r.Rank >= ranks {
			return bad("rank_failures", r, "rank", r.Rank, ranks)
		}
	}
	return nil
}

// withDefaults fills the retry parameters left zero.
func (r RetrySpec) withDefaults() RetrySpec {
	if r.TimeoutSec == 0 {
		r.TimeoutSec = 2e-3
	}
	if r.Backoff == 0 {
		r.Backoff = 2
	}
	if r.MaxTimeoutSec == 0 {
		r.MaxTimeoutSec = 50e-3
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = 4
	}
	if r.MaxTimeoutSec < r.TimeoutSec {
		r.MaxTimeoutSec = r.TimeoutSec
	}
	return r
}

// handles bundles the instrument handles a Schedule resolves once at
// Bind; all nil (and updates free) without a registry.
type handles struct {
	injMem, injNode, injRank, injDrop, injDelay, injSlow *metrics.Counter
	retries                                              *metrics.Counter
	retrySeconds                                         *metrics.Counter
	foRemerges                                           *metrics.Counter
	foLeaders                                            *metrics.Counter
	foUnrecovered                                        *metrics.Counter
}

// Schedule is an armed fault plan for one simulation run. Methods are
// nil-safe: a nil *Schedule answers every query with "no fault" at zero
// cost, so the engine's hot path stays unconditional. A Schedule is
// single-run — build a fresh one per RunOnce.
//
// The plain counters (injected, failovers, ...) are written only from
// simulation context, which the engine serializes; like the cluster
// ledger they need no atomics.
type Schedule struct {
	spec    Spec
	rng     *stats.RNG // per-message delay draws, engine-serialized
	applied []bool     // mem-pressure entries already applied to the ledger

	bound  bool
	tracer *obs.Tracer
	h      handles

	injected    int64
	failovers   int64
	unrecovered int64
	dropped     int64
}

// NewSchedule validates and arms a spec. The entries are sorted so
// application order is deterministic regardless of declaration order.
func NewSchedule(spec Spec) (*Schedule, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec.Retry = spec.Retry.withDefaults()
	spec.MemPressure = append([]MemPressure(nil), spec.MemPressure...)
	sort.Slice(spec.MemPressure, func(i, j int) bool {
		a, b := spec.MemPressure[i], spec.MemPressure[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Bytes < b.Bytes
	})
	spec.NodeFailures = append([]NodeFailure(nil), spec.NodeFailures...)
	sort.Slice(spec.NodeFailures, func(i, j int) bool {
		a, b := spec.NodeFailures[i], spec.NodeFailures[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		return a.Node < b.Node
	})
	spec.RankFailures = append([]RankFailure(nil), spec.RankFailures...)
	sort.Slice(spec.RankFailures, func(i, j int) bool {
		a, b := spec.RankFailures[i], spec.RankFailures[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		return a.Rank < b.Rank
	})
	return &Schedule{
		spec:    spec,
		rng:     stats.NewRNG(spec.Seed ^ 0xfa017),
		applied: make([]bool, len(spec.MemPressure)),
	}, nil
}

// Spec returns the (normalized) spec the schedule was built from.
func (s *Schedule) Spec() Spec {
	if s == nil {
		return Spec{}
	}
	return s.spec
}

// Bind attaches the observability sinks and resolves instrument
// handles. Schedule-level faults (slow OSTs/links, node failures) count
// as injected here, once; per-event faults count as they occur.
// Idempotent; nil-safe in every argument.
func (s *Schedule) Bind(reg *metrics.Registry, t *obs.Tracer) {
	if s == nil || s.bound {
		return
	}
	s.bound = true
	s.tracer = t
	s.h = handles{
		injMem:   reg.Counter("faults_injected_total", "Faults injected, by class.", "class", "mem"),
		injNode:  reg.Counter("faults_injected_total", "Faults injected, by class.", "class", "node"),
		injRank:  reg.Counter("faults_injected_total", "Faults injected, by class.", "class", "rank"),
		injDrop:  reg.Counter("faults_injected_total", "Faults injected, by class.", "class", "drop"),
		injDelay: reg.Counter("faults_injected_total", "Faults injected, by class.", "class", "delay"),
		injSlow:  reg.Counter("faults_injected_total", "Faults injected, by class.", "class", "slow"),
		retries:  reg.Counter("faults_retries_total", "Shuffle retransmissions caused by dropped messages."),
		retrySeconds: reg.Counter("faults_retry_seconds_total",
			"Virtual seconds spent in retry backoff."),
		foRemerges: reg.Counter("failover_remerges_total",
			"File domains dynamically remerged into a sibling after their aggregator was lost."),
		foLeaders: reg.Counter("failover_leaders_total",
			"Node leaderships handed to the next-best rank after a leader failed (two-layer exchange)."),
		foUnrecovered: reg.Counter("failover_unrecovered_total",
			"Failed domains with no surviving sibling to absorb them."),
	}
	n := int64(len(s.spec.SlowOSTs) + len(s.spec.SlowLinks))
	if n > 0 {
		s.h.injSlow.Add(float64(n))
		s.injected += n
		for _, o := range s.spec.SlowOSTs {
			s.tracer.Instant(obs.EventFaultSlow, obs.NoLoc, int64(o.Factor*1e3), int64(o.OST))
		}
		for _, l := range s.spec.SlowLinks {
			s.tracer.Instant(obs.EventFaultSlow, obs.Loc{Rank: -1, Node: l.Node, Group: -1, Round: -1}, int64(l.Factor*1e3), -1)
		}
	}
	if k := int64(len(s.spec.NodeFailures)); k > 0 {
		s.h.injNode.Add(float64(k))
		s.injected += k
		for _, f := range s.spec.NodeFailures {
			s.tracer.Instant(obs.EventFaultNode, obs.Loc{Rank: -1, Node: f.Node, Group: -1, Round: -1}, 0, int64(f.Round))
		}
	}
	if k := int64(len(s.spec.RankFailures)); k > 0 {
		s.h.injRank.Add(float64(k))
		s.injected += k
		for _, f := range s.spec.RankFailures {
			s.tracer.Instant(obs.EventFaultRank, obs.Loc{Rank: f.Rank, Node: -1, Group: -1, Round: -1}, 0, int64(f.Round))
		}
	}
}

// NodeFailedBy reports whether node is failed at (or before) the given
// engine round — the failover predicate's node-death input. Pure, so
// every rank answers identically regardless of call order.
func (s *Schedule) NodeFailedBy(node, round int) bool {
	if s == nil {
		return false
	}
	for _, f := range s.spec.NodeFailures {
		if f.Node == node && f.Round <= round {
			return true
		}
	}
	return false
}

// RankFailedBy reports whether the given world rank is failed at (or
// before) the given engine round — the leader-failover predicate's
// input. Pure, so every rank answers identically.
func (s *Schedule) RankFailedBy(rank, round int) bool {
	if s == nil {
		return false
	}
	for _, f := range s.spec.RankFailures {
		if f.Rank == rank && f.Round <= round {
			return true
		}
	}
	return false
}

// PressureBy returns the cumulative memory pressure injected on node by
// the given round. Pure; the failover predicate uses this rather than
// the live ledger so control decisions are identical on every rank.
func (s *Schedule) PressureBy(node, round int) int64 {
	if s == nil {
		return 0
	}
	var b int64
	for _, p := range s.spec.MemPressure {
		if p.Node == node && p.Round <= round {
			b += p.Bytes
		}
	}
	return b
}

// ApplyPressure applies every not-yet-applied pressure entry due at or
// before round through the apply callback (which squats the bytes on
// the cluster ledger) — exactly once per entry, in sorted order. The
// ledger application is observability; the failover predicate reads
// PressureBy instead.
func (s *Schedule) ApplyPressure(round int, apply func(node int, bytes int64)) {
	if s == nil {
		return
	}
	for i, p := range s.spec.MemPressure {
		if s.applied[i] || p.Round > round {
			continue
		}
		s.applied[i] = true
		apply(p.Node, p.Bytes)
		s.injected++
		s.h.injMem.Inc()
		s.tracer.Instant(obs.EventFaultMem, obs.Loc{Rank: -1, Node: p.Node, Group: -1, Round: p.Round}, p.Bytes, int64(round))
	}
}

// factorAt folds an entry's activity window into a running product.
func factorAt(active bool, factor, acc float64) float64 {
	if active {
		return acc * factor
	}
	return acc
}

// OSTFactor returns the service-time multiplier for ost at virtual time
// now (1 when no straggler fault is active).
func (s *Schedule) OSTFactor(ost int, now float64) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, o := range s.spec.SlowOSTs {
		if o.OST != ost {
			continue
		}
		f = factorAt(now >= o.FromSec && (o.UntilSec == 0 || now < o.UntilSec), o.Factor, f)
	}
	return f
}

// LinkFactor returns the fabric service-time multiplier for messages
// touching node at virtual time now.
func (s *Schedule) LinkFactor(node int, now float64) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, l := range s.spec.SlowLinks {
		if l.Node != node {
			continue
		}
		f = factorAt(now >= l.FromSec && (l.UntilSec == 0 || now < l.UntilSec), l.Factor, f)
	}
	return f
}

// MessageDelay draws one inter-node message's extra delivery latency in
// virtual seconds (0 almost always). The draw consumes the schedule's
// serialized RNG, so a run's delay sequence is deterministic.
func (s *Schedule) MessageDelay(srcNode, dstNode int, now float64) float64 {
	if s == nil || s.spec.Messages.DelayRate <= 0 {
		return 0
	}
	if s.rng.Float64() >= s.spec.Messages.DelayRate {
		return 0
	}
	d := s.rng.Exp(s.spec.Messages.DelayMeanSec)
	s.injected++
	s.h.injDelay.Inc()
	s.tracer.Instant(obs.EventFaultDelay,
		obs.Loc{Rank: -1, Node: srcNode, Group: -1, Round: -1}, int64(d*1e9), int64(dstNode))
	return d
}

// mix hashes a (group, round, rank) coordinate into an independent RNG
// seed, so drop draws are a pure function of position — independent of
// the order ranks reach the exchange.
func mix(seed uint64, a, b, c int) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, v := range [3]uint64{uint64(a) + 1, uint64(b) + 1, uint64(c) + 1} {
		h ^= v * 0xbf58476d1ce4e5b9
		h = (h << 13) | (h >> 51)
		h *= 0x94d049bb133111eb
	}
	return h
}

// ExchangeDrops returns how many times rank's shuffle exchange for
// (group, round) is dropped before succeeding, capped at the retry
// budget. Deterministic and order-independent: the draw stream is
// seeded from the coordinate, not shared state.
func (s *Schedule) ExchangeDrops(group, round, rank int) int {
	if s == nil || s.spec.Messages.DropRate <= 0 {
		return 0
	}
	r := stats.NewRNG(mix(s.spec.Seed, group, round, rank))
	drops := 0
	for drops < s.spec.Retry.MaxRetries && r.Float64() < s.spec.Messages.DropRate {
		drops++
	}
	return drops
}

// RetryPenalty returns the virtual time a rank spends in backoff for
// the given number of drops: sum of min(timeout·backoff^i, maxTimeout).
func (s *Schedule) RetryPenalty(drops int) float64 {
	if s == nil || drops <= 0 {
		return 0
	}
	r := s.spec.Retry
	pen, t := 0.0, r.TimeoutSec
	for i := 0; i < drops; i++ {
		if t > r.MaxTimeoutSec {
			t = r.MaxTimeoutSec
		}
		pen += t
		t *= r.Backoff
	}
	return pen
}

// RecordDrops accounts one rank's round of dropped exchanges and the
// backoff penalty it paid.
func (s *Schedule) RecordDrops(loc obs.Loc, drops int, penalty float64) {
	if s == nil || drops <= 0 {
		return
	}
	s.dropped += int64(drops)
	s.injected += int64(drops)
	s.h.injDrop.Add(float64(drops))
	s.h.retries.Add(float64(drops))
	s.h.retrySeconds.Add(penalty)
	s.tracer.Instant(obs.EventFaultDrop, loc, int64(drops), int64(penalty*1e9))
}

// RecordFailover accounts one dynamic remerge: the taker aggregator
// absorbed the failed domain's remaining windows. bytes is the window
// extent moved; failed the failed domain's index.
func (s *Schedule) RecordFailover(loc obs.Loc, byNodeFailure bool, bytes int64, failed int) {
	if s == nil {
		return
	}
	s.failovers++
	s.h.foRemerges.Inc()
	s.tracer.Instant(obs.EventFailover, loc, bytes, int64(failed))
}

// RecordLeaderFailover accounts one leadership handoff under the
// two-layer exchange: the node's next-best rank (taker) took over for
// a failed leader. Both ranks are world ranks.
func (s *Schedule) RecordLeaderFailover(loc obs.Loc, failed, taker int) {
	if s == nil {
		return
	}
	s.failovers++
	s.h.foLeaders.Inc()
	s.tracer.Instant(obs.EventFailoverLeader, loc, int64(taker), int64(failed))
}

// RecordUnrecovered accounts a failed domain no surviving sibling could
// absorb (it keeps serving on the failed node — the degraded-but-
// complete outcome).
func (s *Schedule) RecordUnrecovered(loc obs.Loc, failed int) {
	if s == nil {
		return
	}
	s.unrecovered++
	s.h.foUnrecovered.Inc()
	s.tracer.Instant(obs.EventFailoverLost, loc, 0, int64(failed))
}

// Injected returns how many faults the run has injected so far.
func (s *Schedule) Injected() int64 {
	if s == nil {
		return 0
	}
	return s.injected
}

// Failovers returns how many dynamic remerges the run performed.
func (s *Schedule) Failovers() int64 {
	if s == nil {
		return 0
	}
	return s.failovers
}

// Unrecovered returns how many failed domains found no survivor.
func (s *Schedule) Unrecovered() int64 {
	if s == nil {
		return 0
	}
	return s.unrecovered
}

// Dropped returns how many exchange drops were injected.
func (s *Schedule) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.dropped
}
