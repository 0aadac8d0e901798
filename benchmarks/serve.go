package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/logx"
	"repro/internal/pfs"
	"repro/internal/pland"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/twolayer"
)

// serveClients is the closed-loop client count: callers of a plan
// service each wait for their reply, and two clients keep both cores of
// the sandbox busy without oversubscribing them.
const serveClients = 2

// serveShape is one plan-service workload: how many distinct request
// layouts there are, how they are visited, and how many fit the cache.
type serveShape struct {
	keys      int
	ranks     int
	nodes     int
	cacheCap  int  // 0 keeps the daemon's default of 1024 entries
	zipf      bool // Zipf(1.1) draws; false visits the keys cyclically
	sliceReqs int
	slices    int  // default timed slices
	telemetry bool // the traced pass also measures what the request log costs here
}

// hotShape is serve-hot: every layout fits the cache and set-up warms
// it, so a timed request is decode → canonicalize → fingerprint →
// cache → write and the planner does nothing.
func hotShape(smoke bool) serveShape {
	if smoke {
		return serveShape{keys: 8, ranks: 48, nodes: 4, zipf: true, sliceReqs: 60, slices: 2, telemetry: true}
	}
	return serveShape{keys: 64, ranks: 1080, nodes: 90, zipf: true, sliceReqs: 5000, slices: 6, telemetry: true}
}

// coldShape is serve-cold: the same bodies and platform, but four times
// the keys visited cyclically against a 16-entry cache, so every
// request misses, plans, encodes, inserts and evicts.
func coldShape(smoke bool) serveShape {
	if smoke {
		return serveShape{keys: 12, ranks: 48, nodes: 4, cacheCap: 2, sliceReqs: 36, slices: 2}
	}
	return serveShape{keys: 256, ranks: 1080, nodes: 90, cacheCap: 16, sliceReqs: 4000, slices: 6}
}

// planKey is one distinct request: the decoded request, its wire body,
// and what the warm pass established about its answer.
type planKey struct {
	req   pland.PlanRequest
	views []datatype.List
	body  []byte
	want  []byte // the warm pass's response body
	fp    string // the warm pass's X-Fingerprint
}

// keyStrategies rotates the strategy by key; "mccio+two-layer" is mccio
// with Options.TwoLayer, which the request must spell out in full.
var keyStrategies = []string{strategy.MCCIO, "mccio+two-layer", strategy.TwoPhase, strategy.TwoLayer}

// servePlatform is the 4 MiB ± σ platform every key is planned on.
func servePlatform(nodes int, seed uint64) (cluster.Config, pfs.Config) {
	mc := simMachine(nodes, 12, 4*cluster.MiB)
	fc := pfs.DefaultConfig()
	fc.Seed = seed
	return mc, fc
}

// serveKeys generates the workload's requests from the seed alone: key
// k asks for an IOR layout of ranks × 2 extents whose block size is
// 64 KiB + perm[k] × 4 KiB, perm being a seeded permutation, so which
// layouts are popular under the Zipf draws depends on the seed.
func serveKeys(sh serveShape, seed uint64) ([]planKey, error) {
	mc, fc := servePlatform(sh.nodes, seed)
	perm := stats.NewRNG(seed).Perm(sh.keys)
	keys := make([]planKey, sh.keys)
	for k := range keys {
		block := int64(64<<10 + perm[k]*4096)
		ranks := make([][]pland.Extent, sh.ranks)
		views := make([]datatype.List, sh.ranks)
		for r := range ranks {
			for seg := int64(0); seg < 2; seg++ {
				off := (seg*int64(sh.ranks) + int64(r)) * block
				ranks[r] = append(ranks[r], pland.Extent{Off: off, Len: block})
				views[r] = append(views[r], datatype.Segment{Off: off, Len: block})
			}
		}
		req := pland.PlanRequest{Cluster: mc, FS: fc, Ranks: ranks}
		switch s := keyStrategies[k%len(keyStrategies)]; s {
		case "mccio+two-layer":
			opts := core.DefaultOptions(mc, fc)
			opts.TwoLayer = true
			req.Strategy, req.Options = strategy.MCCIO, &opts
		default:
			req.Strategy = s
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		keys[k] = planKey{req: req, views: views, body: body}
	}
	return keys, nil
}

// serveSchedule is the key order of one slice, a pure function of
// (shape, seed, slice): Zipf draws from a per-slice stream, or the next
// stretch of the cyclic visit.
func serveSchedule(sh serveShape, seed uint64, slice int) []int {
	out := make([]int, sh.sliceReqs)
	if !sh.zipf {
		for i := range out {
			out[i] = (slice*sh.sliceReqs + i) % sh.keys
		}
		return out
	}
	rng := stats.NewRNG(seed ^ uint64(slice+1)*0x9e3779b97f4a7c15)
	z := stats.NewZipf(sh.keys, 1.1)
	for i := range out {
		out[i] = z.Sample(rng)
	}
	return out
}

// sliceTally is what the clients saw during one slice.
type sliceTally struct {
	hits, misses, coalesced, shed int
	plannerRuns                   int       // the daemon's own count over the slice
	hitLat, missLat               []float64 // ms
	reqBytes, respBytes           int64
}

func (t *sliceTally) merge(o sliceTally) {
	t.hits += o.hits
	t.misses += o.misses
	t.coalesced += o.coalesced
	t.shed += o.shed
	t.hitLat = append(t.hitLat, o.hitLat...)
	t.missLat = append(t.missLat, o.missLat...)
	t.reqBytes += o.reqBytes
	t.respBytes += o.respBytes
}

// serveWorkload drives an in-process daemon on loopback with its own
// closed-loop load generator.
type serveWorkload struct {
	name   string
	shape  serveShape
	seed   uint64
	logger *logx.Logger // set only for the telemetry-cost daemon

	keys   []planKey
	srv    *pland.Server
	served chan error
	url    string
	client *http.Client
}

func newServeWorkload(name string, sh serveShape, seed uint64) *serveWorkload {
	return &serveWorkload{name: name, shape: sh, seed: seed}
}

func (w *serveWorkload) describe() string {
	sh := w.shape
	visit, capacity := "visited cyclically", sh.cacheCap
	if sh.zipf {
		visit = "Zipf s=1.1"
	}
	if capacity == 0 {
		capacity = 1024
	}
	return fmt.Sprintf("POST /v1/plan, closed loop with %d clients, %d keys %s, IOR %d ranks x 2 extents on %d nodes, %d-entry cache, %d requests/slice",
		serveClients, sh.keys, visit, sh.ranks, sh.nodes, capacity, sh.sliceReqs)
}

func (w *serveWorkload) unit() string       { return "slice" }
func (w *serveWorkload) defaultPasses() int { return w.shape.slices }
func (w *serveWorkload) opsPerPass() int    { return w.shape.sliceReqs }

// setup builds the bodies, starts the daemon and makes the warm pass:
// every key once, in order, each answer checked in depth and kept as
// the bytes every timed answer must equal. On serve-hot this also
// fills the cache; on serve-cold it leaves only the last few keys
// cached, which the cyclic visit does not reach before they are
// evicted.
func (w *serveWorkload) setup() error {
	keys, err := serveKeys(w.shape, w.seed)
	if err != nil {
		return err
	}
	w.keys = keys
	srv, err := pland.New(pland.Config{CacheCapacity: w.shape.cacheCap, Logger: w.logger})
	if err != nil {
		return err
	}
	w.srv, w.url = srv, "http://"+srv.Addr()
	w.served = make(chan error, 1)
	go func() { w.served <- srv.Serve() }()
	w.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 2 * serveClients, MaxIdleConnsPerHost: 2 * serveClients},
	}
	var buf bytes.Buffer
	for k := range w.keys {
		key := &w.keys[k]
		status, hdr, err := w.post(key.body, &buf)
		if err != nil {
			return fmt.Errorf("warm pass key %d: %w", k, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm pass key %d: status %d: %s", k, status, bytes.TrimSpace(buf.Bytes()))
		}
		if c := hdr.Get("X-Cache"); c != "miss" {
			return fmt.Errorf("warm pass key %d: X-Cache %q, want miss", k, c)
		}
		key.want = append([]byte(nil), buf.Bytes()...)
		key.fp = hdr.Get("X-Fingerprint")
		if err := checkPlanBody(key, key.want); err != nil {
			return fmt.Errorf("warm pass key %d: %w", k, err)
		}
	}
	return nil
}

// close drains the daemon and waits until it has stopped serving.
func (w *serveWorkload) close() error {
	if w.srv == nil {
		return nil
	}
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.served; err == nil {
		err = serr
	}
	w.srv = nil
	return err
}

// plannerRuns reads the daemon's own count of planner executions.
func (w *serveWorkload) plannerRuns() int {
	snap := w.srv.Registry().Snapshot()
	v, _ := snap.Get("mccio_pland_planner_runs_total", nil)
	return int(v)
}

// post sends one plan request and reads the whole answer into buf.
func (w *serveWorkload) post(body []byte, buf *bytes.Buffer) (int, http.Header, error) {
	req, err := http.NewRequest(http.MethodPost, w.url+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, resp.Header, nil
}

// pass runs one slice: the clients pull the schedule's next index, send
// that key's body and wait for the reply. A request fails on a
// transport error, a status other than 200 (a shed 429 included), an
// X-Cache class the workload must not produce, a fingerprint header or
// a body that differs from the warm pass's. The slice as a whole fails
// an op when the daemon ran the planner more or less often than the
// clients saw misses.
func (w *serveWorkload) pass(idx int, sp *spanRecorder, parent int) passResult {
	sched := serveSchedule(w.shape, w.seed, idx)
	out := passResult{ops: len(sched), serve: &sliceTally{}}
	runsBefore := w.plannerRuns()
	results := make([]passResult, serveClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func(res *passResult) {
			defer wg.Done()
			res.serve = &sliceTally{}
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				w.request(res, &w.keys[sched[i]], &buf, sp, parent, idx*len(sched)+i)
			}
		}(&results[c])
	}
	wg.Wait()
	for _, r := range results {
		out.lat = append(out.lat, r.lat...)
		out.failed += r.failed
		if out.firstErr == "" {
			out.firstErr = r.firstErr
		}
		out.serve.merge(*r.serve)
	}
	out.serve.plannerRuns = w.plannerRuns() - runsBefore
	if out.serve.plannerRuns != out.serve.misses {
		out.fail(fmt.Sprintf("daemon ran the planner %d times, clients saw %d misses", out.serve.plannerRuns, out.serve.misses))
	}
	return out
}

// request is one closed-loop iteration of a client.
func (w *serveWorkload) request(res *passResult, key *planKey, buf *bytes.Buffer, sp *spanRecorder, parent, reqIdx int) {
	id := -1
	if sp != nil {
		id = sp.begin("http.plan", fmt.Sprint(reqIdx), parent)
	}
	t0 := time.Now()
	status, hdr, err := w.post(key.body, buf)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	sp.end(id)
	res.lat = append(res.lat, ms)
	t := res.serve
	t.reqBytes += int64(len(key.body))
	t.respBytes += int64(buf.Len())
	if err != nil {
		res.fail(err.Error())
		return
	}
	if status != http.StatusOK {
		if status == http.StatusTooManyRequests {
			t.shed++
		}
		res.fail(fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(buf.Bytes())))
		return
	}
	class := hdr.Get("X-Cache")
	switch class {
	case "hit":
		t.hits++
		t.hitLat = append(t.hitLat, ms)
	case "coalesced":
		t.coalesced++
	case "miss":
		t.misses++
		t.missLat = append(t.missLat, ms)
	}
	wantClass := "miss"
	if w.shape.zipf {
		wantClass = "hit"
	}
	switch {
	case class != wantClass && class != "coalesced":
		res.fail(fmt.Sprintf("X-Cache %q, want %s or coalesced", class, wantClass))
	case hdr.Get("X-Fingerprint") != key.fp:
		res.fail(fmt.Sprintf("X-Fingerprint %q, want %q", hdr.Get("X-Fingerprint"), key.fp))
	case !bytes.Equal(buf.Bytes(), key.want):
		res.fail("response body differs from the warm pass's body for its key")
	}
}

// latency pools nothing across slices: each slice's percentile is taken
// over its own requests and the median slice is reported, so one
// disturbed slice cannot move the result.
func (w *serveWorkload) latency(passes []passResult) (p50, p95 float64, samples int) {
	for _, p := range passes {
		samples += len(p.lat)
	}
	p50, _ = medianOfSlices(passes, func(p passResult) float64 { return percentile(p.lat, 50) })
	p95, _ = medianOfSlices(passes, func(p passResult) float64 { return percentile(p.lat, 95) })
	return p50, p95, samples
}

// layerMetrics fills the service part of the ledger from the traced
// slice's client-side tallies and the daemon's own registry.
func (w *serveWorkload) layerMetrics(traced passResult, m map[string]float64) {
	t := traced.serve
	n := float64(traced.ops)
	m["pland.hit_p50_ms"] = percentile(t.hitLat, 50)
	m["pland.miss_p50_ms"] = percentile(t.missLat, 50)
	m["pland.p99_ms"] = percentile(traced.lat, 99)
	m["pland.hit_share"] = float64(t.hits+t.coalesced) / n
	m["pland.shed_share"] = float64(t.shed) / n
	m["pland.req_kb"] = float64(t.reqBytes) / n / 1e3
	m["pland.resp_kb"] = float64(t.respBytes) / n / 1e3
	m["pland.planner_runs"] = float64(t.plannerRuns)
}

// checkPlanBody is the in-depth check of one plan answer: the body's
// fingerprint is the header's, every group's domains are sorted,
// disjoint and cover exactly the group's data, the aggregator count is
// the domain count, and an mccio plan equals what core.MCCIO.Inspect
// computes directly for the same request.
func checkPlanBody(key *planKey, body []byte) error {
	var resp pland.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if resp.Fingerprint == "" || resp.Fingerprint != key.fp {
		return fmt.Errorf("body fingerprint %q, X-Fingerprint %q", resp.Fingerprint, key.fp)
	}
	if resp.Ranks != len(key.views) {
		return fmt.Errorf("ranks %d, want %d", resp.Ranks, len(key.views))
	}
	domains := 0
	for gi, g := range resp.Groups {
		if !sort.SliceIsSorted(g.Domains, func(i, j int) bool { return g.Domains[i].Lo < g.Domains[j].Lo }) {
			return fmt.Errorf("group %d: domains not sorted by offset", gi)
		}
		var data int64
		for di, d := range g.Domains {
			if d.Hi <= d.Lo || (di > 0 && d.Lo < g.Domains[di-1].Hi) {
				return fmt.Errorf("group %d: domain %d [%d,%d) empty or overlapping", gi, di, d.Lo, d.Hi)
			}
			data += d.DataBytes
		}
		if data != g.CoverageBytes {
			return fmt.Errorf("group %d: domains hold %d bytes, coverage is %d", gi, data, g.CoverageBytes)
		}
		domains += len(g.Domains)
	}
	if resp.Aggregators != domains {
		return fmt.Errorf("aggregators %d, domains %d", resp.Aggregators, domains)
	}
	if key.req.Strategy != strategy.MCCIO {
		return nil
	}
	machine, err := cluster.New(key.req.Cluster)
	if err != nil {
		return err
	}
	ir, err := core.MCCIO{Opts: resp.Options}.Inspect(machine, key.views)
	if err != nil {
		return fmt.Errorf("direct inspect: %w", err)
	}
	if len(ir.Plans) != len(resp.Groups) {
		return fmt.Errorf("groups %d, direct inspect has %d", len(resp.Groups), len(ir.Plans))
	}
	for gi, gp := range ir.Plans {
		g := resp.Groups[gi]
		if g.First != gp.Group.First || g.Last != gp.Group.Last || g.Remerges != gp.Remerges || len(g.Domains) != len(gp.Placements) {
			return fmt.Errorf("group %d differs from direct inspect", gi)
		}
		for di, pl := range gp.Placements {
			d := g.Domains[di]
			if d.Agg != pl.Agg || d.Lo != pl.Leaf.Lo || d.Hi != pl.Leaf.Hi || d.DataBytes != pl.Leaf.DataBytes || d.BufBytes != pl.Buf {
				return fmt.Errorf("group %d domain %d differs from direct inspect", gi, di)
			}
		}
	}
	return nil
}

// stageReplica times, by calling the same public functions directly on
// the workload's own bodies, the stages a request passes through, and
// derives what is left of a hit once they are subtracted. Each direct
// call is a span.
func (w *serveWorkload) stageReplica(sp *spanRecorder, parent int, m map[string]float64) error {
	sample := w.keys[:min(len(w.keys), 32)]
	// stage records the median time of f over the sampled keys that
	// keep admits, in microseconds.
	stage := func(name string, keep func(key *planKey) bool, f func(k int, key *planKey) error) error {
		var us []float64
		for k := range sample {
			key := &sample[k]
			if keep != nil && !keep(key) {
				continue
			}
			id := sp.begin(name, fmt.Sprint(k), parent)
			t0 := time.Now()
			err := f(k, key)
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			sp.end(id)
			if err != nil {
				return fmt.Errorf("%s key %d: %w", name, k, err)
			}
		}
		m[name] = median(us)
		return nil
	}

	// What the planner stages consume is prepared outside their timers.
	machines := make([]*cluster.Machine, len(sample))
	resps := make([]pland.PlanResponse, len(sample))
	for k := range sample {
		var err error
		if machines[k], err = cluster.New(sample[k].req.Cluster); err != nil {
			return err
		}
		if err := json.Unmarshal(sample[k].want, &resps[k]); err != nil {
			return err
		}
	}
	var exts []collio.Ext
	var nodeOf []int
	var avail []int64
	for r, v := range sample[0].views {
		lo, hi := v.Extent()
		exts = append(exts, collio.Ext{Lo: lo, Hi: hi})
		nodeOf = append(nodeOf, machines[0].NodeOfRank(r))
		avail = append(avail, machines[0].Node(nodeOf[r]).Available())
	}
	mem := sample[0].req.Cluster.MemPerNode

	stages := []struct {
		name string
		keep func(key *planKey) bool
		f    func(k int, key *planKey) error
	}{
		{"pland.decode_us", nil, func(_ int, key *planKey) error {
			var req pland.PlanRequest
			return json.Unmarshal(key.body, &req)
		}},
		{"datatype.normalize_us", nil, func(_ int, key *planKey) error {
			for _, exts := range key.req.Ranks {
				segs := make([]datatype.Segment, 0, len(exts))
				for _, e := range exts {
					segs = append(segs, datatype.Segment{Off: e.Off, Len: e.Len})
				}
				_ = datatype.Normalize(segs)
			}
			return nil
		}},
		{"core.inspect_us", func(key *planKey) bool { return key.req.Strategy == strategy.MCCIO }, func(k int, key *planKey) error {
			_, err := core.MCCIO{Opts: resps[k].Options}.Inspect(machines[k], key.views)
			return err
		}},
		{"collio.planfrommeta_us", nil, func(int, *planKey) error {
			_ = collio.TwoPhase{CBBuffer: mem}.PlanFromMeta(exts, nodeOf, avail)
			return nil
		}},
		{"twolayer.planfrommeta_us", nil, func(int, *planKey) error {
			_, _ = twolayer.Strategy{CBBuffer: mem}.PlanFromMeta(exts, nodeOf, avail)
			return nil
		}},
		{"pland.encode_us", nil, func(k int, _ *planKey) error {
			_, err := json.Marshal(resps[k])
			return err
		}},
	}
	for _, s := range stages {
		if err := stage(s.name, s.keep, s.f); err != nil {
			return err
		}
	}

	cache := pland.NewCache(1024, nil)
	for k := range w.keys {
		cache.Put(w.keys[k].fp, w.keys[k].want)
	}
	const lookups = 200000
	id := sp.begin("pland.cache_hit_ns", "", parent)
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		if _, st, _ := cache.Get(w.keys[i%len(w.keys)].fp, nil); st != pland.StatusHit {
			return fmt.Errorf("cache replica: key %d not present", i%len(w.keys))
		}
	}
	m["pland.cache_hit_ns"] = float64(time.Since(t0).Nanoseconds()) / lookups
	sp.end(id)

	var floor []float64
	for i := 0; i < 300; i++ {
		id := sp.begin("pland.http_floor_us", fmt.Sprint(i), parent)
		t0 := time.Now()
		resp, err := w.client.Get(w.url + "/healthz")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		floor = append(floor, float64(time.Since(t0).Nanoseconds())/1e3)
		sp.end(id)
	}
	m["pland.http_floor_us"] = median(floor)
	if hit := m["pland.hit_p50_ms"]; hit > 0 {
		m["pland.hit_residual_us"] = hit*1e3 - (m["pland.http_floor_us"] + m["pland.decode_us"] +
			m["datatype.normalize_us"] + m["pland.cache_hit_ns"]/1e3)
	}
	return nil
}
