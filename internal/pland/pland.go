// Package pland is the plan-serving daemon: it turns the MCCIO
// planner (group division, partition tree, remerging, memory-aware
// aggregator placement) from a per-run library call into a cached,
// concurrent, observable network service.
//
// On a real extreme-scale machine the same (platform, memory vector,
// request layout) shape recurs across timesteps and across jobs, so
// the daemon keys each request by a canonical fingerprint — defaults
// filled, tunables resolved, per-rank layouts normalized — and serves
// repeats from a fingerprinted LRU cache. Concurrent identical misses
// collapse into one planner run (singleflight), and a cache hit
// returns the exact bytes the original miss produced.
//
// The endpoints:
//
//	POST /v1/plan       compute or cache-hit an aggregation plan
//	POST /v1/simulate   run the request through the collio engine
//	GET  /healthz       liveness JSON (503 while draining)
//	GET  /metrics       Prometheus text exposition
//	GET  /metrics.json  JSON snapshot of the same registry
//	GET  /debug/flight  flight-recorder dump (JSONL request records)
//	GET  /debug/explain decision-count summary of the latest planner run
//	GET  /debug/ring    cluster membership, health, and ownership shares
//	GET  /debug/pprof/  live profiles, when Config.Pprof is set
//
// With Config.Peers set (two or more members), the daemon is one shard
// of a plan-serving ring. A consistent-hash ring (internal/ring) keyed
// on the plan fingerprint assigns each plan an owner shard; a request
// that lands on the wrong shard is proxied to the owner in a single
// internal hop (X-Forwarded-By is the loop guard, and the client's
// X-Request-ID rides along so one ID joins the logs on both daemons).
// Fingerprints whose request rate crosses Config.HotThreshold are
// replicated: the owner's bytes are cached locally on the way back and
// later requests are replica-hits, so Zipf-head layouts stop
// bottlenecking one shard. Peer health probes (Config.ProbeInterval)
// route around dead shards — the next replica in ring order takes
// over, and if forwarding fails at transport level the daemon computes
// locally rather than failing the client.
//
// Every /v1/* response carries an X-Request-ID header — the client's,
// when it sent a well-formed one, else freshly minted — and the same
// ID appears in exactly one structured request-log record (Config.
// Logger), in the in-memory flight recorder, and on the request's
// trace span, so one grep joins all three views of a request.
//
// Admission control bounds the planner and simulator work: a
// sweep.Pool of workers with a bounded backlog executes plan misses
// and simulations, and when the backlog is full the daemon sheds the
// request with 429 + Retry-After instead of queueing without bound.
// Cache hits bypass admission, so known shapes stay served even under
// overload. SIGTERM (cmd/mccio-pland) drains gracefully: in-flight
// requests finish, new ones are refused, and the process exits 0.
package pland

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/logx"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// Config sizes the daemon. The zero value serves on an ephemeral
// localhost port with defaults suitable for tests.
type Config struct {
	// Addr is the listen address; empty means "127.0.0.1:0".
	Addr string
	// Listener, when non-nil, is used instead of binding Addr. The
	// in-process ring bench and cluster tests bind every member's
	// listener first, so each daemon's Peers map can name the others'
	// real addresses before any of them is constructed.
	Listener net.Listener
	// CacheCapacity is the plan cache's entry bound; <= 0 means 1024.
	CacheCapacity int
	// Workers bounds concurrently executing planner/simulator jobs;
	// <= 0 means GOMAXPROCS.
	Workers int
	// Queue bounds the admission backlog beyond the in-flight jobs.
	// 0 means the default of 64; pass a negative value for no backlog
	// at all (admit only what a worker can start immediately).
	Queue int
	// Registry receives the daemon's metrics; nil creates one.
	Registry *metrics.Registry
	// Tracer, when non-nil, records one server-side span per request
	// (phases "serve.plan" and "serve.simulate") on a wall-clock
	// timeline, so mccio-report summarize can break server time down.
	// Each span carries the request's X-Request-ID, joining it to the
	// request log.
	Tracer *obs.Tracer
	// Logger, when non-nil, writes one JSONL record per request (the
	// -log flag). Nil disables request logging at zero cost.
	Logger *logx.Logger
	// FlightSize bounds the flight recorder's recent-request ring;
	// <= 0 means 256. The recorder is always on — it is the post-
	// incident dump behind GET /debug/flight and SIGQUIT.
	FlightSize int
	// Pprof, when true, mounts the net/http/pprof handlers on the
	// daemon's own mux under /debug/pprof/ for live profiling.
	Pprof bool
	// ShardID names this daemon on the plan-serving ring (and in its
	// request logs and /healthz). Required when Peers has two or more
	// entries; optional (a label only) on a single node.
	ShardID string
	// Peers maps shard ID -> base URL ("http://host:port") for every
	// ring member, including this daemon under ShardID. Two or more
	// entries enable cluster mode: consistent-hash ownership of plan
	// fingerprints, peer forwarding, and hot-key replication.
	Peers map[string]string
	// Vnodes is the per-member virtual-node count on the placement
	// ring; <= 0 means ring.DefaultVnodes.
	Vnodes int
	// HotThreshold is the request count within HotWindow at which a
	// non-owned fingerprint turns hot and its bytes are replicated
	// into the local cache on the way back from the owner; <= 0 means
	// 8.
	HotThreshold int
	// HotWindow is the hot-key tracking window; <= 0 means 10s.
	HotWindow time.Duration
	// ProbeInterval is the peer health-probe period; <= 0 means 500ms.
	ProbeInterval time.Duration
}

// Server-side trace phases: one span per request, stamped with
// wall-clock seconds since the daemon started.
const (
	PhaseServePlan     obs.Phase = "serve.plan"
	PhaseServeSimulate obs.Phase = "serve.simulate"
)

// Server is a running plan-serving daemon.
type Server struct {
	cfg     Config
	reg     *metrics.Registry
	tracer  *obs.Tracer
	logger  *logx.Logger
	flight  *FlightRecorder
	cache   *Cache
	pool    *sweep.Pool
	clu     *clusterState // nil on a single-node daemon
	ln      net.Listener
	http    *http.Server
	started time.Time

	drainOnce sync.Once
	draining  chan struct{} // closed when Shutdown begins

	explainMu   sync.Mutex
	lastExplain *ExplainState // most recent planner run's decision summary

	requests  func(endpoint, code string) *metrics.Counter
	latency   func(endpoint string) *metrics.Histogram
	shed      *metrics.Counter
	planRuns  *metrics.Counter
	simRuns   *metrics.Counter
	panics    *metrics.Counter
	queueGa   *metrics.Gauge
	activeGa  *metrics.Gauge
	testHooks struct {
		// planStarted, when non-nil, is invoked at the start of every
		// admitted planner job — tests use it to hold a worker busy.
		planStarted func()
	}
}

// New binds the listen address and builds the daemon; call Serve to
// start answering. The returned server's Addr reports the actual
// address, so Addr ":0" works for tests and in-process benches.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue == 0 {
		cfg.Queue = 64
	}
	if cfg.FlightSize <= 0 {
		cfg.FlightSize = 256
	}
	if cfg.HotThreshold <= 0 {
		cfg.HotThreshold = 8
	}
	if cfg.HotWindow <= 0 {
		cfg.HotWindow = 10 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.New()
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		tracer:   cfg.Tracer,
		logger:   cfg.Logger,
		flight:   NewFlightRecorder(cfg.FlightSize),
		cache:    NewCache(cfg.CacheCapacity, reg),
		pool:     sweep.NewPool(cfg.Workers, cfg.Queue),
		draining: make(chan struct{}),
		started:  time.Now(),
		shed: reg.Counter("mccio_pland_shed_total",
			"Requests shed with 429 because the admission backlog was full."),
		planRuns: reg.Counter("mccio_pland_planner_runs_total",
			"Planner executions (cache misses that ran to completion)."),
		simRuns: reg.Counter("mccio_pland_simulations_total",
			"Simulations executed by /v1/simulate."),
		panics: reg.Counter("mccio_pland_planner_panics_total",
			"Planner or simulator panics recovered into a 422; anything but 0 is a bug."),
		queueGa: reg.Gauge("mccio_pland_queue_depth",
			"Admitted jobs waiting for a worker, sampled per request."),
		activeGa: reg.Gauge("mccio_pland_active_jobs",
			"Jobs currently executing, sampled per request."),
	}
	s.requests = func(endpoint, code string) *metrics.Counter {
		return reg.Counter("mccio_pland_requests_total",
			"Requests served, by endpoint and status code.",
			"endpoint", endpoint, "code", code)
	}
	s.latency = func(endpoint string) *metrics.Histogram {
		return reg.Histogram("mccio_pland_request_seconds",
			"Wall-clock request latency by endpoint.",
			metrics.DefSecondsBuckets(), "endpoint", endpoint)
	}
	if s.tracer != nil {
		start := time.Now()
		s.tracer.SetClock(func() float64 { return time.Since(start).Seconds() })
	}
	if len(cfg.Peers) > 1 {
		clu, err := newClusterState(cfg.ShardID, cfg.Peers, cfg.Vnodes,
			newHotTracker(cfg.HotThreshold, cfg.HotWindow), cfg.ProbeInterval, reg)
		if err != nil {
			return nil, err
		}
		s.clu = clu
	}

	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, err
		}
	}
	s.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/v1/simulate", s.handleSimulate)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.Handle("/metrics", metrics.Handler(reg))
	mux.Handle("/metrics.json", metrics.JSONHandler(reg))
	mux.HandleFunc("/debug/flight", s.handleFlight)
	mux.HandleFunc("/debug/explain", s.handleExplain)
	mux.HandleFunc("/debug/ring", s.handleRing)
	if cfg.Pprof {
		metrics.AttachPprof(mux)
	}
	s.http = metrics.NewServer(mux)
	if s.clu != nil {
		s.clu.startProbes()
	}
	return s, nil
}

// Flight returns the daemon's flight recorder — the SIGQUIT handler in
// cmd/mccio-pland dumps it.
func (s *Server) Flight() *FlightRecorder { return s.flight }

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Registry returns the daemon's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Serve answers requests until Shutdown; it returns nil after a clean
// shutdown.
func (s *Server) Serve() error {
	err := s.http.Serve(s.ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the daemon: /healthz flips to 503, the listener
// stops accepting, in-flight requests (and the pool jobs they wait on)
// finish, and admission closes. It returns nil when everything
// completed before ctx expired.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		close(s.draining)
		if s.clu != nil {
			s.clu.stopProbes()
		}
	})
	if err := s.http.Shutdown(ctx); err != nil {
		return err
	}
	return s.pool.Drain(ctx)
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}
