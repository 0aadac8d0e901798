package pland

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/adio"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/logx"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// maxBodyBytes bounds a request body; a layout bigger than this is a
// client error, not a reason to exhaust the daemon's memory.
const maxBodyBytes = 32 << 20

// errShed marks a request refused by admission control.
var errShed = errors.New("pland: admission queue full")

// PlanDomain is one aggregator's file domain in a plan response.
type PlanDomain struct {
	// Agg is the aggregator's group-relative rank.
	Agg int `json:"agg"`
	// Node is the physical node hosting the aggregator.
	Node int `json:"node"`
	// Lo and Hi bound the domain's file extent (half-open).
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// DataBytes is the requested data covered inside the domain.
	DataBytes int64 `json:"data_bytes"`
	// BufBytes is the aggregation buffer charged on the node.
	BufBytes int64 `json:"buf_bytes"`
}

// PlanGroup is one aggregation group's slice of a plan response.
type PlanGroup struct {
	// First and Last bound the group's rank range (inclusive).
	First int `json:"first"`
	Last  int `json:"last"`
	// Nodes is the number of physical nodes the group spans.
	Nodes int `json:"nodes"`
	// Bytes is the group members' total requested data.
	Bytes int64 `json:"bytes"`
	// CoverageBytes is the group's aggregate coverage (union of
	// requests).
	CoverageBytes int64 `json:"coverage_bytes"`
	// Remerges counts workload-portion remerges placement performed.
	Remerges int `json:"remerges"`
	// Domains lists the group's file domains in partition-tree order.
	Domains []PlanDomain `json:"domains"`
}

// PlanLeader is one elected node leader in a plan response (two-layer
// exchange only).
type PlanLeader struct {
	// Group is the aggregation group the election ran in (0 for the
	// single-group strategies).
	Group int `json:"group"`
	// Node is the physical node; Rank the winning group-relative rank.
	Node int `json:"node"`
	Rank int `json:"rank"`
	// MemAvail is the node's available memory at election time and
	// Score the winner's election score (Mem_avl minus extent span).
	MemAvail int64 `json:"mem_avail"`
	Score    int64 `json:"score"`
	// RunnersUp counts the losing mates on the node.
	RunnersUp int `json:"runners_up"`
}

// PlanResponse is the body of a successful POST /v1/plan: the resolved
// tunables and the full aggregation plan. Serialization is
// deterministic (structs only, no maps), which is what lets the cache
// promise byte-identical responses.
type PlanResponse struct {
	// Fingerprint is the canonical request key the plan is cached
	// under.
	Fingerprint string `json:"fingerprint"`
	// Strategy is the resolved collective strategy the plan is for.
	Strategy string `json:"strategy"`
	// Ranks echoes the request's rank count.
	Ranks int `json:"ranks"`
	// TotalBytes is the layout's total requested data.
	TotalBytes int64 `json:"total_bytes"`
	// Options are the resolved MCCIO tunables the plan was built with.
	Options core.Options `json:"options"`
	// Groups is the aggregation-group division with per-group domains.
	Groups []PlanGroup `json:"groups"`
	// Aggregators is the total aggregator count across groups.
	Aggregators int `json:"aggregators"`
	// Remerges is the total remerge count across groups.
	Remerges int `json:"remerges"`
	// Leaders lists the elected node leaders when the plan carries the
	// two-layer exchange (strategy two-layer, or mccio with
	// Options.TwoLayer); empty otherwise.
	Leaders []PlanLeader `json:"leaders,omitempty"`
}

// SimResponse is the body of a successful POST /v1/simulate: the
// engine's global result plus the top-level phase breakdown.
type SimResponse struct {
	// Fingerprint is the canonical key of the embedded plan request.
	Fingerprint string `json:"fingerprint"`
	// Strategy and Op echo what ran.
	Strategy string `json:"strategy"`
	Op       string `json:"op"`
	// BandwidthMBps is application bandwidth in MB/s.
	BandwidthMBps float64 `json:"bandwidth_mbps"`
	// Elapsed is the collective's virtual elapsed seconds.
	Elapsed float64 `json:"elapsed_s"`
	// Bytes is the data moved by the collective.
	Bytes int64 `json:"bytes"`
	// Rounds, Aggregators, Groups, Remerges summarize the schedule.
	Rounds      int `json:"rounds"`
	Aggregators int `json:"aggregators"`
	Groups      int `json:"groups"`
	Remerges    int `json:"remerges"`
	// Phases maps each top-level pipeline phase to its summed virtual
	// seconds across ranks.
	Phases map[string]float64 `json:"phases"`
}

// errorResponse is the JSON error body for non-2xx answers.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSONError answers with a JSON error body and the given status.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

// observe finishes a request's bookkeeping: latency histogram and the
// per-endpoint/code counter.
func (s *Server) observe(endpoint string, code int, start time.Time) {
	s.requests(endpoint, fmt.Sprintf("%d", code)).Inc()
	s.latency(endpoint).Observe(time.Since(start).Seconds())
	s.queueGa.Set(float64(s.pool.Queued()))
	s.activeGa.Set(float64(s.pool.Active()))
}

// requestID returns the client's X-Request-ID when it is well-formed,
// or mints a fresh one. Every /v1/* response carries the result, so
// one ID joins the access log, the flight recorder, and the trace.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); logx.ValidRequestID(id) {
		return id
	}
	return logx.NewRequestID()
}

// finish emits the request's single log record — latency metrics,
// request log, flight recorder — once the response has been written.
// Every handler path, success or error, funnels through here exactly
// once.
func (s *Server) finish(rec *logx.Record, start time.Time) {
	rec.DurS = time.Since(start).Seconds()
	s.observe(rec.Endpoint, rec.Status, start)
	s.logger.Request(*rec)
	s.flight.Record(*rec)
}

// fail answers with a JSON error body and finishes the request's
// bookkeeping.
func (s *Server) fail(w http.ResponseWriter, rec *logx.Record, status int, msg string, start time.Time) {
	writeJSONError(w, status, msg)
	rec.Status = status
	rec.Error = msg
	s.finish(rec, start)
}

// handlePlan serves POST /v1/plan: canonicalize, fingerprint, then
// cache-hit or compute. Hits and coalesced waits bypass admission;
// only the planner run of a miss occupies a pool slot. In cluster
// mode, a fingerprint owned by another shard takes one internal hop to
// its owner first (serveClustered); a request that already took that
// hop (X-Forwarded-By set) is always served locally — the loop guard.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := requestID(r)
	w.Header().Set("X-Request-ID", rid)
	rec := logx.Record{ReqID: rid, Endpoint: "plan", Shard: s.cfg.ShardID}
	if r.Method != http.MethodPost {
		s.fail(w, &rec, http.StatusMethodNotAllowed, "POST only", start)
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.fail(w, &rec, http.StatusBadRequest, "bad request body: "+err.Error(), start)
		return
	}
	var req PlanRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		s.fail(w, &rec, http.StatusBadRequest, "bad request body: "+err.Error(), start)
		return
	}
	canon, err := req.canonicalize()
	if err != nil {
		s.fail(w, &rec, http.StatusBadRequest, err.Error(), start)
		return
	}
	if !strategy.Planned(canon.Strategy) {
		s.fail(w, &rec, http.StatusBadRequest,
			fmt.Sprintf("pland: strategy %q is not plannable (want %s)", canon.Strategy, strategy.PlannedList()), start)
		return
	}
	fp := canon.Fingerprint()
	rec.Fingerprint = fp
	forwardedBy := r.Header.Get(headerForwardedBy)
	if forwardedBy != "" {
		rec.Peer = forwardedBy
		if s.clu != nil {
			s.clu.forwardedIn.Inc()
		}
	}
	sp := s.tracer.BeginID(PhaseServePlan, obs.NoLoc, rid)
	if s.clu != nil && forwardedBy == "" {
		if s.serveClustered(w, &rec, sp, fp, raw, rid, start) {
			return
		}
	}

	body, status, err := s.cache.Get(fp, func() ([]byte, error) {
		return s.admitPlan(canon, fp, &rec)
	})
	sp.EndBytes(int64(len(body)), int64(len(canon.Views)))
	switch {
	case errors.Is(err, errShed):
		rec.Cache = "shed"
		s.shed.Inc()
		w.Header().Set("Retry-After", "1")
		s.fail(w, &rec, http.StatusTooManyRequests, err.Error(), start)
		return
	case err != nil:
		s.fail(w, &rec, http.StatusUnprocessableEntity, err.Error(), start)
		return
	}
	rec.Cache = status.String()
	s.writePlanBody(w, &rec, fp, body, start)
}

// serveClustered is the cluster routing step of handlePlan, reached
// only for first-hop requests (no X-Forwarded-By). It reports true
// when it fully served the request; false falls through to the normal
// local path — either because this shard is the fingerprint's place to
// be (owner, or every better replica is down) or because the forward
// failed and local compute is the never-fail-the-client fallback.
//
// The verdicts it produces, in priority order:
//
//	replica-hit   the fingerprint is in the local cache even though a
//	              peer owns it (an earlier hot fill) — served locally
//	forward-hit   proxied to the owner, who had it cached (or
//	              coalesced onto a run already in flight)
//	forward-miss  proxied to the owner, who ran the planner
func (s *Server) serveClustered(w http.ResponseWriter, rec *logx.Record, sp *obs.Span, fp string, raw []byte, rid string, start time.Time) bool {
	target := s.clu.route(fp)
	if target == s.clu.self {
		return false
	}
	hot := s.clu.hot.Observe(fp, time.Now())
	if body, ok := s.cache.Lookup(fp); ok {
		s.clu.replicaHits.Inc()
		sp.EndBytes(int64(len(body)), 0)
		rec.Cache = "replica-hit"
		s.writePlanBody(w, rec, fp, body, start)
		return true
	}
	res, err := s.clu.forward(s.clu.peers[target], raw, rid)
	if err != nil {
		// Owner unreachable: compute locally. The peer is already
		// marked down, so the next request routes around it without
		// paying the timeout again.
		s.clu.fallbacks.Inc()
		s.clu.forwards("fallback").Inc()
		return false
	}
	rec.Peer = target
	w.Header().Set(headerServedBy, target)
	if res.status != http.StatusOK {
		// The owner's answer to a bad or shed request is authoritative
		// — the same request would fail identically here. Relay it.
		s.clu.forwards("relayed").Inc()
		w.Header().Set("Content-Type", "application/json")
		if res.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		sp.End()
		w.WriteHeader(res.status)
		w.Write(res.body)
		rec.Status = res.status
		rec.Bytes = int64(len(res.body))
		s.finish(rec, start)
		return true
	}
	verdict := "forward-hit"
	if res.cache == StatusMiss.String() {
		verdict = "forward-miss"
		s.clu.forwards("miss").Inc()
	} else {
		s.clu.forwards("hit").Inc()
	}
	if hot {
		// Hot-key replication: keep the owner's bytes so the next
		// request for this Zipf head is a local replica-hit.
		s.cache.Put(fp, res.body)
		s.clu.replicaFills.Inc()
	}
	sp.EndBytes(int64(len(res.body)), 0)
	rec.Cache = verdict
	s.writePlanBody(w, rec, fp, res.body, start)
	return true
}

// writePlanBody writes a successful plan response — headers, body,
// bookkeeping — with rec.Cache as the X-Cache verdict.
func (s *Server) writePlanBody(w http.ResponseWriter, rec *logx.Record, fp string, body []byte, start time.Time) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", rec.Cache)
	w.Header().Set("X-Fingerprint", fp)
	w.Write(body)
	rec.Status = http.StatusOK
	rec.Bytes = int64(len(body))
	s.finish(rec, start)
}

// handleRing serves GET /debug/ring: this daemon's view of the cluster
// — membership, per-peer health, exact ownership shares, and the hot-
// key state. 404 on a single-node daemon.
func (s *Server) handleRing(w http.ResponseWriter, r *http.Request) {
	if s.clu == nil {
		writeJSONError(w, http.StatusNotFound, "not clustered (no -peers)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.clu.status(s.cfg.ShardID, s.cfg.HotThreshold, s.cfg.HotWindow))
}

// admitPlan runs the planner through admission control: the job takes
// a pool slot (shedding with errShed when the backlog is full) and the
// calling handler goroutine waits for its result. The job stamps its
// admission wait and planner execution time into rec; a coalesced
// caller's rec keeps zeros, because someone else's run paid the cost.
func (s *Server) admitPlan(canon *canonRequest, fp string, rec *logx.Record) ([]byte, error) {
	type out struct {
		body []byte
		err  error
	}
	submitted := time.Now()
	ch := make(chan out, 1)
	admitted := s.pool.TrySubmit(func() {
		rec.WaitS = time.Since(submitted).Seconds()
		if s.testHooks.planStarted != nil {
			s.testHooks.planStarted()
		}
		t0 := time.Now()
		body, sum, err := buildPlanJSON(canon, fp, s.panics)
		rec.WorkS = time.Since(t0).Seconds()
		if err == nil {
			s.planRuns.Inc()
			s.storeExplain(fp, sum)
		}
		ch <- out{body, err}
	})
	if !admitted {
		return nil, errShed
	}
	o := <-ch
	return o.body, o.err
}

// buildPlanJSON serializes the plans the request's strategy executes
// (inspect) as a PlanResponse — per domain the *collio.Plan's
// aggregator, extent and buffer, the host from the group's node map,
// the covered data from one walk of the coverage — plus the
// decision-count summary GET /debug/explain reports. A planner panic
// (hostile-but-validated input hitting an internal invariant) is
// counted and converted to an error so one request cannot take the
// daemon down.
func buildPlanJSON(c *canonRequest, fp string, panics *metrics.Counter) (body []byte, sum explain.Summary, err error) {
	defer func() {
		if p := recover(); p != nil {
			panics.Inc()
			err = fmt.Errorf("pland: planner failed: %v", p)
		}
	}()
	ir, sum, err := inspect(c)
	if err != nil {
		return nil, explain.Summary{}, err
	}
	resp := PlanResponse{Fingerprint: fp, Strategy: c.Strategy, Ranks: len(c.Views), Options: c.Options,
		Groups: make([]PlanGroup, len(ir.Plans))}
	for gi, gp := range ir.Plans {
		pg := PlanGroup{
			First:         gp.Group.First,
			Last:          gp.Group.Last,
			Nodes:         gp.Group.Nodes,
			Bytes:         gp.Group.Bytes,
			CoverageBytes: gp.Coverage.TotalBytes(),
			Remerges:      gp.Remerges,
		}
		if doms := gp.Plan.Domains; len(doms) > 0 {
			pg.Domains = make([]PlanDomain, len(doms))
			cov := gp.Coverage
			for i, d := range doms {
				for len(cov) > 0 && cov[0].End() <= d.Lo {
					cov = cov[1:]
				}
				var data int64
				for _, s := range cov {
					if s.Off >= d.Hi {
						break
					}
					data += min(s.End(), d.Hi) - max(s.Off, d.Lo)
				}
				pg.Domains[i] = PlanDomain{Agg: d.Agg, Node: gp.NodeOfRank[d.Agg], Lo: d.Lo, Hi: d.Hi, DataBytes: data, BufBytes: d.BufBytes}
			}
		}
		for _, l := range gp.Leaders {
			resp.Leaders = append(resp.Leaders, PlanLeader{
				Group: gi, Node: l.Node, Rank: l.Rank,
				MemAvail: l.Avail, Score: l.Score, RunnersUp: len(l.RunnersUp),
			})
		}
		resp.TotalBytes += gp.Group.Bytes
		resp.Aggregators += len(pg.Domains)
		resp.Remerges += gp.Remerges
		resp.Groups[gi] = pg
	}
	body, err = json.Marshal(resp)
	if err != nil {
		return nil, explain.Summary{}, err
	}
	return append(body, '\n'), sum, nil
}

// inspect runs the request's strategy's comm-free planner
// (adio.Inspect) on a fresh machine built from the canonical request:
// the plans the live collective would execute, and the summary of the
// decisions that made them. The single-group strategies size their
// collective buffer from the node's memory, as /v1/simulate does.
func inspect(c *canonRequest) (*core.InspectResult, explain.Summary, error) {
	machine, err := cluster.New(c.Cluster)
	if err != nil {
		return nil, explain.Summary{}, err
	}
	rec := explain.NewRecorder()
	machine.SetExplain(rec)
	ir, err := adio.Inspect(c.Strategy, c.Options, c.Cluster.MemPerNode, machine, c.Views)
	if err != nil {
		return nil, explain.Summary{}, err
	}
	return ir, explain.Summarize(rec.Events()), nil
}

// ExplainState is the body of GET /debug/explain: the decision-count
// summary of the most recent planner execution (a cache miss that ran),
// keyed by the plan fingerprint it produced.
type ExplainState struct {
	// Fingerprint is the canonical request key of the summarized run.
	Fingerprint string `json:"fingerprint"`
	// Summary is the run's decision-count rollup.
	Summary explain.Summary `json:"summary"`
}

// storeExplain publishes the latest planner run's decision summary.
func (s *Server) storeExplain(fp string, sum explain.Summary) {
	s.explainMu.Lock()
	s.lastExplain = &ExplainState{Fingerprint: fp, Summary: sum}
	s.explainMu.Unlock()
}

// handleExplain serves GET /debug/explain: the decision-count summary
// of the most recent planner run, or 404 before any miss has executed
// (cache hits reuse an earlier run's plan and do not update it).
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.explainMu.Lock()
	st := s.lastExplain
	s.explainMu.Unlock()
	if st == nil {
		writeJSONError(w, http.StatusNotFound, "no planner run recorded yet")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// handleSimulate serves POST /v1/simulate: every simulation goes
// through admission control (simulations are the expensive requests),
// runs the collio engine on the request's platform and layout, and
// answers with the result plus phase breakdown.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := requestID(r)
	w.Header().Set("X-Request-ID", rid)
	rec := logx.Record{ReqID: rid, Endpoint: "simulate", Shard: s.cfg.ShardID}
	if r.Method != http.MethodPost {
		s.fail(w, &rec, http.StatusMethodNotAllowed, "POST only", start)
		return
	}
	var req SimRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		s.fail(w, &rec, http.StatusBadRequest, "bad request body: "+err.Error(), start)
		return
	}
	op, err := req.validateSim()
	if err != nil {
		s.fail(w, &rec, http.StatusBadRequest, err.Error(), start)
		return
	}
	canon, err := req.canonicalize()
	if err != nil {
		s.fail(w, &rec, http.StatusBadRequest, err.Error(), start)
		return
	}
	fp := canon.Fingerprint()
	rec.Fingerprint = fp
	sp := s.tracer.BeginID(PhaseServeSimulate, obs.NoLoc, rid)

	type out struct {
		resp *SimResponse
		err  error
	}
	submitted := time.Now()
	ch := make(chan out, 1)
	admitted := s.pool.TrySubmit(func() {
		rec.WaitS = time.Since(submitted).Seconds()
		t0 := time.Now()
		resp, err := runSimulation(canon, fp, op, s.panics)
		rec.WorkS = time.Since(t0).Seconds()
		if err == nil {
			s.simRuns.Inc()
		}
		ch <- out{resp, err}
	})
	if !admitted {
		sp.End()
		rec.Cache = "shed"
		s.shed.Inc()
		w.Header().Set("Retry-After", "1")
		s.fail(w, &rec, http.StatusTooManyRequests, errShed.Error(), start)
		return
	}
	o := <-ch
	sp.End()
	if o.err != nil {
		s.fail(w, &rec, http.StatusUnprocessableEntity, o.err.Error(), start)
		return
	}
	body, err := json.Marshal(o.resp)
	if err != nil {
		s.fail(w, &rec, http.StatusInternalServerError, err.Error(), start)
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Fingerprint", fp)
	w.Write(body)
	rec.Status = http.StatusOK
	rec.Bytes = int64(len(body))
	s.finish(&rec, start)
}

// simSpec is the run /v1/simulate executes for a canonical request:
// the request's strategy built by name — the non-MCCIO collectives
// size their buffer from the node's memory, like the bench sweeps — on
// the request's platform and layout.
func simSpec(c *canonRequest, op string) (bench.Spec, error) {
	strat, err := adio.New(c.Strategy, c.Options, c.Cluster.MemPerNode)
	return bench.Spec{
		Strategy: strat,
		Op:       op,
		Machine:  c.Cluster,
		FS:       c.FS,
		Workload: workload.Explicit{Label: "plan-service", Views: c.Views},
	}, err
}

// runSimulation executes one collective through bench.RunOnce with a
// per-run tracer and folds the phase summary into the response. A
// simulator panic is counted and converted to an error.
func runSimulation(c *canonRequest, fp, op string, panics *metrics.Counter) (resp *SimResponse, err error) {
	defer func() {
		if p := recover(); p != nil {
			panics.Inc()
			err = fmt.Errorf("pland: simulation failed: %v", p)
		}
	}()
	spec, err := simSpec(c, op)
	if err != nil {
		return nil, err
	}
	res, sum, err := bench.RunOncePhases(spec)
	if err != nil {
		return nil, err
	}
	out := &SimResponse{
		Fingerprint:   fp,
		Strategy:      c.Strategy,
		Op:            op,
		BandwidthMBps: res.BandwidthMBps(),
		Elapsed:       res.Elapsed,
		Bytes:         res.Bytes,
		Rounds:        res.Rounds,
		Aggregators:   res.Aggregators,
		Groups:        res.Groups,
		Remerges:      res.Remerges,
		Phases:        make(map[string]float64),
	}
	for ph, tot := range sum.Phases {
		if ph.TopLevel() {
			out.Phases[string(ph)] = tot.Seconds
		}
	}
	return out, nil
}

// HealthResponse is the GET /healthz body: liveness plus the coarse
// daemon state a poller wants without scraping the full /metrics page.
type HealthResponse struct {
	// Status is "ok" while accepting, "draining" once Shutdown began.
	Status string `json:"status"`
	// Draining mirrors Status as a bool for jq-style gates.
	Draining bool `json:"draining"`
	// UptimeS is seconds since the daemon was built.
	UptimeS float64 `json:"uptime_s"`
	// CacheEntries is the plan cache's current entry count.
	CacheEntries int `json:"cache_entries"`
	// ShardID is the daemon's ring name (the -shard-id flag); omitted
	// when unnamed.
	ShardID string `json:"shard_id,omitempty"`
	// Peers and PeersUp count the other ring members and how many of
	// them this daemon currently sees as healthy; both zero on a
	// single-node daemon.
	Peers   int `json:"peers,omitempty"`
	PeersUp int `json:"peers_up,omitempty"`
}

// handleHealth serves GET /healthz: 200 with a JSON body while
// accepting, 503 (same body shape) once the daemon starts draining —
// the signal a load balancer needs to stop routing before connections
// are refused.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:       "ok",
		UptimeS:      time.Since(s.started).Seconds(),
		CacheEntries: s.cache.Len(),
		ShardID:      s.cfg.ShardID,
	}
	if s.clu != nil {
		resp.Peers = len(s.clu.peers)
		for _, p := range s.clu.peers {
			if p.up.Load() {
				resp.PeersUp++
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if s.isDraining() {
		resp.Status = "draining"
		resp.Draining = true
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp)
}

// handleFlight serves GET /debug/flight: the flight recorder's retained
// records as JSONL — the live, no-signal variant of the SIGQUIT dump,
// same schema as the request log.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.flight.WriteJSONL(w)
}
